"""The unified bench runner: registry, records, reports.

A figure built at a tiny ad-hoc scale must produce a complete record:
fingerprinted, with one serialized row per run (the same
:func:`repro.stats.export.result_to_row` schema as the CSV exports) and
one span tree per scheme.
"""

import copy
import json
import os
import re

import pytest

from repro.bench.record import (
    SCHEMA_VERSION,
    build_record,
    load_record,
    record_basename,
    render_markdown,
    scheme_points,
    write_record,
)
from repro.bench.runner import (
    FIGURE_NAMES,
    FIGURE_SCHEMES,
    FIGURES,
    build_figures,
    select_figures,
)
from repro.dma.registry import ALL_SCHEMES
from repro.bench.scales import QUICK_SCALE, BenchScale
from repro.obs.spans import SpanNode
from repro.sim.costmodel import CostModel

#: Small enough for test runtime, big enough to reach steady state.
TINY = BenchScale(
    name="tiny",
    units_single=40, units_multi=20,
    warmup_single=10, warmup_multi=5,
    multi_cores=2,
    sizes_single=(16384,), sizes_multi=(16384,),
    breakdown_size=16384,
    rr_sizes=(1024,), rr_transactions=20, rr_warmup=5,
    memcached_cores=2, memcached_tpc=15, memcached_warmup=5,
    storage_block_sizes=(4096,), storage_ops=30, storage_warmup=5,
)


def _build(name: str) -> dict:
    figures, _ = build_figures(select_figures([name]), TINY)
    return figures[name]


@pytest.fixture(scope="module")
def fig03_data():
    return _build("fig03")


def test_registry_names_are_unique_and_ordered():
    assert len(set(FIGURE_NAMES)) == len(FIGURE_NAMES)
    assert FIGURE_NAMES[0] == "fig01"
    assert "fig08" in FIGURE_NAMES and "storage" in FIGURE_NAMES


def test_select_figures_rejects_unknown_names():
    assert [s.name for s in select_figures(None)] == list(FIGURE_NAMES)
    assert [s.name for s in select_figures(["fig08", "fig03"])] \
        == ["fig08", "fig03"]
    assert [s.name for s in select_figures(["fig05", "fig05"])] \
        == ["fig05"]
    with pytest.raises(SystemExit):
        select_figures(["fig99"])


def test_figure_build_produces_series_and_spans(fig03_data):
    rows = fig03_data["series"]
    assert len(rows) == len(FIGURE_SCHEMES)       # one size in TINY
    for row in rows:
        assert row["figure"] == "fig03"
        assert row["scheme"] in FIGURE_SCHEMES
        assert row["throughput_gbps"] > 0
        assert row["param_message_size"] == 16384
    assert set(fig03_data["spans"]) == set(FIGURE_SCHEMES)
    strict = SpanNode.from_dict(fig03_data["spans"]["identity-strict"])
    assert strict.child_cycles > 0
    # The record holds facts only: its table renders from the rows.
    assert set(fig03_data) == {"title", "series", "spans"}


def test_record_round_trip(tmp_path, fig03_data):
    record = build_record(mode="tiny", figures={"fig03": fig03_data},
                          schemes=FIGURE_SCHEMES, cost=CostModel())
    assert record["schema_version"] == SCHEMA_VERSION
    fp = record["fingerprint"]
    assert fp["mode"] == "tiny"
    assert "memcpy_fixed_cycles" in fp["cost_model"]
    assert "derived" not in fp["cost_model"]

    json_path, md_path = write_record(record, str(tmp_path),
                                      record_basename(record),
                                      render_markdown(record))
    assert os.path.basename(json_path).startswith("BENCH_")
    loaded = load_record(json_path)
    assert loaded == json.loads(json.dumps(record))

    markdown = render_markdown(record)
    assert "## fig03" in markdown
    assert "Figure 3: single-core TCP RX" in markdown
    assert "spans — identity-strict" in markdown
    # The report is a view of the record: re-rendering the loaded JSON
    # reproduces the written markdown byte for byte.
    with open(md_path) as fh:
        written = fh.read()
    assert written == markdown
    assert render_markdown(load_record(json_path)) == written


BASELINE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "benchmarks", "results", "baseline.json")


def _glued_scheme(line: str):
    """The first token of ``line`` that runs a scheme name into the
    text after it (another scheme, a digit, a word), or ``None``."""
    names = "|".join(map(re.escape, sorted(ALL_SCHEMES, key=len,
                                           reverse=True)))
    for match in re.finditer(rf"(?<!\S)((?:{names})+)(\S*)", line):
        glued, rest = match.groups()
        if glued not in ALL_SCHEMES or rest[:1].isalnum():
            return match.group(0)
    return None


def test_baseline_tables_render_from_rows_with_schemes_apart():
    """Every figure of the checked-in baseline renders its table from
    its series rows alone, the report embeds it, and every scheme name
    a table prints stands as its own token."""
    record = load_record(BASELINE)
    markdown = render_markdown(record)
    for spec in FIGURES:
        figure = record["figures"][spec.name]
        assert set(figure) == {"title", "series", "spans"}
        table = spec.render(scheme_points({"series": figure["series"]}))
        assert table.rstrip() in markdown
        printed = [line for line in table.splitlines()
                   if any(scheme in line for scheme in ALL_SCHEMES)]
        assert printed, spec.name
        for line in printed:
            assert _glued_scheme(line) is None, (spec.name, line)


def test_glued_scheme_names_are_caught():
    assert _glued_scheme("category  copyidentity-deferredidentity-strict")
    assert _glued_scheme("identity-deferred-boundednone  1")
    assert _glued_scheme("identity-strict-percore16  37.50")
    assert _glued_scheme("identity-strict-percore  16  copy_user") is None


def test_markdown_carries_latency_and_exposure_tables(fig03_data):
    record = build_record(mode="tiny", figures={"fig03": fig03_data},
                          schemes=FIGURE_SCHEMES)
    markdown = render_markdown(record)
    assert "## Request latency tails" in markdown
    assert "p99.9 [us]" in markdown
    assert "| fig03 | copy | tcp_stream_rx |" in markdown
    assert "## Exposure" in markdown
    assert "| identity-deferred |" in markdown
    empty = render_markdown(build_record(mode="tiny", figures={},
                                         schemes=FIGURE_SCHEMES))
    assert "(no request-latency data in this run)" in empty
    assert "(no exposure data in this run)" in empty


def test_exposure_table_counts_a_shared_point_once(fig03_data):
    """Two figures reading the same run points sum them once; a point
    that differs in a parameter still adds."""
    def exposure(figures):
        markdown = render_markdown(build_record(
            mode="tiny", figures=figures, schemes=FIGURE_SCHEMES))
        return markdown.split(
            "## Exposure (summed across distinct run points)")[1]

    shared = copy.deepcopy(fig03_data)
    for row in shared["series"]:
        row["figure"] = "fig05"
    alone = exposure({"fig03": fig03_data})
    assert exposure({"fig03": fig03_data, "fig05": shared}) == alone
    for row in shared["series"]:
        row["param_message_size"] = 4096
    assert exposure({"fig03": fig03_data, "fig05": shared}) != alone


def test_load_record_rejects_garbage(tmp_path):
    bad = tmp_path / "not_a_record.json"
    bad.write_text('{"something": "else"}')
    with pytest.raises(SystemExit):
        load_record(str(bad))
    worse = tmp_path / "not_json.json"
    worse.write_text("][")
    with pytest.raises(SystemExit):
        load_record(str(worse))
    stale = tmp_path / "old_schema.json"
    stale.write_text(json.dumps({"schema_version": 999, "figures": {}}))
    with pytest.raises(SystemExit):
        load_record(str(stale))


def test_v1_record_is_refused(tmp_path):
    """A schema-1 scale record (its points at the top level) is refused
    with the version message rather than loading as an empty record."""
    v1 = tmp_path / "scale.json"
    v1.write_text(json.dumps({"schema_version": 1, "figures": {},
                              "points": {"copy": []}}))
    with pytest.raises(SystemExit, match="schema_version 1; "
                                         f"this build reads {SCHEMA_VERSION}"):
        load_record(str(v1))


def test_quick_scale_covers_every_figure_knob():
    # A frozen reminder: adding a figure that reads a new scale knob
    # must extend both presets.
    assert QUICK_SCALE.units_single > QUICK_SCALE.warmup_single
    assert QUICK_SCALE.units_multi > QUICK_SCALE.warmup_multi
    assert QUICK_SCALE.rr_transactions > QUICK_SCALE.rr_warmup
    assert QUICK_SCALE.memcached_tpc > QUICK_SCALE.memcached_warmup
    assert QUICK_SCALE.storage_ops > QUICK_SCALE.storage_warmup


def test_fig_scalinv_build_tiny():
    """The scalable-invalidation figure: one row per (scheme, cores),
    with the strict variants' zero-stale invariant visible in the rows
    the record gates."""
    from repro.bench.runner import SCALINV_SCHEMES

    data = _build("fig_scalinv")
    rows = data["series"]
    assert len(rows) == len(SCALINV_SCHEMES) * len(TINY.scalinv_cores)
    by_scheme = {}
    for row in rows:
        assert row["figure"] == "fig_scalinv"
        assert row["throughput_gbps"] > 0
        by_scheme.setdefault(row["scheme"], []).append(row)
    assert set(by_scheme) == set(SCALINV_SCHEMES)
    for scheme in ("identity-strict", "identity-strict-percore",
                   "identity-strict-prefetch"):
        for row in by_scheme[scheme]:
            assert row["exposure_stale_byte_cycles"] == 0
    table = {spec.name: spec for spec in FIGURES}["fig_scalinv"].render(
        scheme_points(data))
    assert "stale byte-cycles" in table
