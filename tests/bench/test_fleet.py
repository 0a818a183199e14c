"""The ``repro fleet`` capacity search: determinism, verdict, gating.

The search shares the bench fan-out contract: ``--jobs N`` may only
change wall-clock, so ``fleet.json`` (and the report and the window
series) must be byte-identical at any job count once
:func:`repro.bench.record.stable_view` strips the host-dependent
fields.  The acceptance claim rides here too: at the p99 objective the
copy scheme sustains a larger user population than strict
invalidation, and the breach forensics past strict's knee name the
invalidation-queue lock.
"""

import json

import pytest

from repro.bench.fleet import FleetSizing, build_fleet_figure, build_searches
from repro.bench.record import build_record, load_record, stable_view
from repro.bench.regression import moved_paths
from repro.cli import main as cli_main
from repro.obs.context import Observability
from repro.workloads.fleet import FleetConfig, run_fleet

_FLEET_ARGS = ["fleet", "--schemes", "strict,copy", "--quick"]


def _run_fleet(tmp_path, jobs: int) -> dict:
    out = tmp_path / f"jobs{jobs}"
    status = cli_main(_FLEET_ARGS + ["--jobs", str(jobs),
                                     "--out", str(out)])
    assert status == 0
    record = load_record(str(out / "fleet.json"))
    record["_report"] = (out / "fleet.md").read_text()
    record["_windows"] = (out / "fleet_windows.jsonl").read_text()
    record["_trace"] = (out / "fleet_identity-strict.trace.json"
                        ).read_text()
    return record


@pytest.fixture(scope="module")
def searches(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fleet")
    return {jobs: _run_fleet(tmp_path, jobs) for jobs in (1, 2)}


def test_fleet_jobs_records_byte_identical(searches):
    views = {}
    for jobs, record in searches.items():
        record = {k: v for k, v in record.items()
                  if not k.startswith("_")}
        views[jobs] = json.dumps(stable_view(record), sort_keys=True)
    assert views[1] == views[2]


def test_fleet_artifacts_byte_identical(searches):
    assert searches[1]["_report"] == searches[2]["_report"]
    assert searches[1]["_windows"] == searches[2]["_windows"]


def test_copy_capacity_exceeds_strict(searches):
    """The paper's verdict re-asked as capacity: under the same SLO the
    copy scheme carries more users than strict invalidation."""
    capacity = searches[1]["figures"]["fleet"]["capacity"]
    assert capacity["copy"]["capacity_users"] > \
        capacity["identity-strict"]["capacity_users"]
    # Both searches actually bracketed a knee.
    for scheme in ("copy", "identity-strict"):
        assert capacity[scheme]["first_failing_users"] is not None
        assert not capacity[scheme]["saturated"]


def test_breach_forensics_name_span_and_lock(searches):
    """Past strict's knee the forensics name an invalidation span path
    and the qi lock — the 'why' next to the capacity verdict."""
    entries = searches[1]["figures"]["fleet"]["forensics"]["identity-strict"]
    assert entries, "no breach forensics recorded past the knee"
    first = entries[0]
    assert first["dominant_span_path"]
    assert " > " in first["dominant_span_path"]
    assert first["dominant_span_cycles"] > 0
    assert first["top_lock"] == "qi-lock"
    assert first["top_lock_wait_cycles"] > 0
    # The report retells it.
    assert "qi-lock" in searches[1]["_report"]


def test_fleet_record_structure(searches):
    record = searches[1]
    # A bench record: the envelope only, the search under one figure.
    assert sorted(k for k in record if not k.startswith("_")) == [
        "created", "figures", "fingerprint", "schema_version",
        "throughput"]
    assert list(record["figures"]) == ["fleet"]
    figure = record["figures"]["fleet"]
    assert figure["title"] == "Fleet capacity: max users at p99 <= 60 us"
    assert figure["objective"]["p99_us"] == 60.0
    assert figure["sizing"]["start_users"] == 1_000_000
    for scheme in ("identity-strict", "copy"):
        curve = figure["curves"][scheme]
        assert len(curve) >= 3
        users = [point["users"] for point in curve]
        assert len(set(users)) == len(users)           # eval cache held
        cap = figure["capacity"][scheme]["capacity_users"]
        by_users = {point["users"]: point for point in curve}
        assert by_users[cap]["sustained"]
        assert by_users[cap]["breach_windows"] == 0
        hi = figure["capacity"][scheme]["first_failing_users"]
        assert not by_users[hi]["sustained"]
    # Capacity columns ride the figure's rows.
    rows = figure["series"]
    assert [row["fleet_capacity_users"] for row in rows] == [
        figure["capacity"]["identity-strict"]["capacity_users"],
        figure["capacity"]["copy"]["capacity_users"]]
    assert all(row["slo_breach_windows"] == 0 for row in rows)
    assert all("param_users" not in row for row in rows)


def test_fleet_record_diffs_and_gates_like_a_bench_record(searches):
    from repro.obs.diff import build_diff, diff_is_zero, side_from_record

    record = {k: v for k, v in searches[1].items()
              if not k.startswith("_")}
    assert moved_paths(record, searches[2]) == {}
    side = side_from_record(record, "fleet")
    assert ("fleet", "capacity", "copy") in side.points
    assert ("fleet", "copy", "spans") in side.points
    assert diff_is_zero(build_diff(side, side_from_record(record, "b")))


def test_window_series_and_trace_exports(searches):
    lines = [json.loads(line) for line
             in searches[1]["_windows"].splitlines()]
    assert lines
    for line in lines:
        assert line["scheme"] in ("identity-strict", "copy")
        assert line["point"] in ("capacity", "breach")
        assert line["end_cycles"] > line["start_cycles"]
    assert {line["point"] for line in lines} == {"capacity", "breach"}
    # Breach points really breach; capacity points never do.
    assert any(line["breach"] for line in lines
               if line["point"] == "breach")
    assert not any(line["breach"] for line in lines
                   if line["point"] == "capacity")
    # The Perfetto export carries the SLO counter tracks.
    assert "slo.p99_window" in searches[1]["_trace"]
    assert "slo.burn_rate" in searches[1]["_trace"]


# ----------------------------------------------------------------------
# Simulator throughput: every fleet run inside the timed search counts.
# ----------------------------------------------------------------------
#: A search of a few short runs: bracket, one bisection, one re-run.
_TINY_FLEET = FleetSizing(
    name="tiny", cores=1, duration_us=400.0, warmup_us=100.0,
    max_doublings=3, rel_tol=0.5)


def _fleet_cycles(scheme: str, users: int) -> int:
    return run_fleet(FleetConfig(
        scheme=scheme, cores=_TINY_FLEET.cores, users=users,
        duration_us=_TINY_FLEET.duration_us,
        warmup_us=_TINY_FLEET.warmup_us,
        obs=Observability.capture())).wall_cycles


def test_search_throughput_counts_every_run():
    """``sim_cycles`` covers each curve evaluation plus the Perfetto
    re-run of the first failing point, not just the two rows the record
    keeps."""
    scheme = "identity-strict"
    searches, throughput = build_searches([scheme], _TINY_FLEET,
                                          with_trace=True)
    search = searches[scheme]
    hi = search["first_failing_users"]
    assert hi is not None and len(search["curve"]) >= 3
    expected = sum(_fleet_cycles(scheme, point["users"])
                   for point in search["curve"])
    expected += _fleet_cycles(scheme, hi)
    assert throughput["overall"]["sim_cycles"] == expected


def test_bench_fleet_figure_counts_every_search_run():
    figure, sim_cycles = build_fleet_figure(_TINY_FLEET, ["copy"])
    _, throughput = build_searches(["copy"], _TINY_FLEET)
    assert sim_cycles == throughput["overall"]["sim_cycles"]
    assert sim_cycles > sum(row["wall_cycles"] for row in figure["series"])


# ----------------------------------------------------------------------
# The regression gate on the capacity columns.
# ----------------------------------------------------------------------
def _fleet_record(capacity: int, breaches: int) -> dict:
    row = {"scheme": "identity-strict", "workload": "fleet", "cores": 2,
           "param_duration_us": 1200.0, "throughput_gbps": 1.0,
           "fleet_capacity_users": capacity,
           "slo_breach_windows": breaches}
    figures = {"fleet": {"series": [row]}}
    return build_record(mode="quick", figures=figures,
                        schemes=("identity-strict",))


def _moved_columns(baseline: dict, current: dict) -> list:
    return [path.split("].")[1].split(":")[0]
            for path in moved_paths(baseline, current).get("fleet", ())]


def test_gate_trips_on_capacity_collapse():
    baseline = _fleet_record(capacity=4_000_000, breaches=0)
    collapsed = _fleet_record(capacity=2_500_000, breaches=0)
    assert _moved_columns(baseline, collapsed) == ["fleet_capacity_users"]


def test_gate_zero_baseline_breach_trips():
    """Capacity points are breach-free by construction, so any breach
    appearing where the baseline had none is a regression."""
    baseline = _fleet_record(capacity=4_000_000, breaches=0)
    breaching = _fleet_record(capacity=4_000_000, breaches=2)
    assert _moved_columns(baseline, breaching) == ["slo_breach_windows"]
