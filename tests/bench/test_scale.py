"""The ``repro scale`` sweep: determinism, the paper's verdict, gating.

The sweep shares the bench fan-out contract: ``--jobs N`` may only
change wall-clock, so ``scale.json`` must be byte-identical at any job
count once :func:`repro.bench.record.stable_view` strips the
host-dependent fields.  And the headline acceptance claim rides here:
on the stream workload, strict invalidation must show a much larger
fitted serial fraction than copy, attributed to the invalidation-queue
lock.
"""

import json

import pytest

from repro.bench.record import build_record, load_record, stable_view
from repro.bench.regression import moved_paths
from repro.bench.scale import resolve_cores, resolve_schemes, scheme_points
from repro.cli import main as cli_main

_SWEEP_ARGS = ["scale", "--workload", "stream",
               "--schemes", "strict,copy",          # paper aliases resolve
               "--cores", "1,2,4", "--quick"]


def _run_sweep(tmp_path, jobs: int) -> dict:
    out = tmp_path / f"jobs{jobs}"
    status = cli_main(_SWEEP_ARGS + ["--jobs", str(jobs),
                                     "--out", str(out)])
    assert status == 0
    record = load_record(str(out / "scale.json"))
    # The markdown report rides along under a fixed name.
    report = (out / "scale.md").read_text()
    record["_report"] = report
    return record


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("scale")
    return {jobs: _run_sweep(tmp_path, jobs) for jobs in (1, 2)}


def test_scale_jobs_records_byte_identical(sweeps):
    views = {}
    for jobs, record in sweeps.items():
        record = dict(record)
        record.pop("_report")
        views[jobs] = json.dumps(stable_view(record), sort_keys=True)
    assert views[1] == views[2]


def test_scale_reports_byte_identical(sweeps):
    assert sweeps[1]["_report"] == sweeps[2]["_report"]


def test_strict_serial_fraction_dominates_copy(sweeps):
    """The paper's multicore collapse, quantified: strict's fitted
    serial fraction is several times copy's, and the contention matrix
    blames the invalidation-queue lock."""
    analysis = sweeps[1]["figures"]["scale"]["analysis"]
    strict = analysis["identity-strict"]
    copy = analysis["copy"]
    assert strict["fit"]["serial_fraction"] > 3 * (
        copy["fit"]["serial_fraction"] or 0.0)
    assert strict["fit"]["serial_fraction"] > 0.3
    assert strict["top_lock"] == "qi-lock"
    assert strict["lock_wait_share"] > copy["lock_wait_share"]
    # The report says so in prose-adjacent markdown.
    assert "qi-lock" in sweeps[1]["_report"]
    assert "invalidation-queue decomposition" in sweeps[1]["_report"]


def test_scale_record_structure(sweeps):
    record = sweeps[1]
    # A bench record: the envelope only, the sweep under one figure.
    assert sorted(k for k in record if k != "_report") == [
        "created", "figures", "fingerprint", "schema_version",
        "throughput"]
    assert list(record["figures"]) == ["scale"]
    figure = record["figures"]["scale"]
    assert figure["workload"] == "stream"
    assert figure["cores"] == [1, 2, 4]
    # Aliases resolved to canonical names, order preserved.
    points = scheme_points(figure)
    assert list(points) == ["identity-strict", "copy"]
    for scheme, rows in points.items():
        assert [p["cores"] for p in rows] == [1, 2, 4]
        for row in rows:
            assert row["figure"] == "scale"
            assert row["workload"] == "stream"
            assert row["busy_cycles"] > 0
            assert 0.0 <= row["scaling_serial_fraction"] <= 1.0
        assert scheme in figure["contention"]
        assert [r["cores"] for r in figure["queueing"][scheme]] == [1, 2, 4]
    # Strict's invalidation queueing rows carry real traffic.
    strict_rows = figure["queueing"]["identity-strict"]
    assert all(row["submissions"] > 0 for row in strict_rows)
    assert record["throughput"]["overall"]["sim_cycles"] > 0


# ----------------------------------------------------------------------
# Argument resolution.
# ----------------------------------------------------------------------
def test_resolve_schemes_aliases_and_dedup():
    assert resolve_schemes(["strict", "identity-strict", "copy"]) \
        == ["identity-strict", "copy"]
    with pytest.raises(SystemExit):
        resolve_schemes(["no-such-scheme"])
    with pytest.raises(SystemExit):
        resolve_schemes([])


def test_resolve_cores_sorted_unique_positive():
    assert resolve_cores([4, 1, 2, 2]) == [1, 2, 4]
    with pytest.raises(SystemExit):
        resolve_cores([0, 2])
    with pytest.raises(SystemExit):
        resolve_cores([])


# ----------------------------------------------------------------------
# The regression gate on the serialized-share columns.
# ----------------------------------------------------------------------
def _record_with_shares(serial: float, lock_wait: float) -> dict:
    row = {"scheme": "identity-strict", "workload": "stream", "cores": 16,
           "param_size": 16384, "throughput_gbps": 10.0,
           "lock_wait_share": lock_wait,
           "scaling_serial_fraction": serial}
    figures = {"fig06": {"series": [row]}}
    return build_record(mode="quick", figures=figures,
                        schemes=("identity-strict",))


def _moved_columns(baseline: dict, current: dict) -> list:
    return [path.split("].")[1].split(":")[0]
            for path in moved_paths(baseline, current).get("fig06", ())]


def test_gate_trips_on_serial_fraction_growth():
    baseline = _record_with_shares(serial=0.40, lock_wait=0.30)
    grown = _record_with_shares(serial=0.55, lock_wait=0.30)
    assert _moved_columns(baseline, grown) == ["scaling_serial_fraction"]


def test_gate_zero_baseline_lock_wait_trips():
    """A scheme that provably never spun (share exactly 0) starting to
    spin is a regression."""
    baseline = _record_with_shares(serial=0.0, lock_wait=0.0)
    spinning = _record_with_shares(serial=0.01, lock_wait=0.01)
    assert _moved_columns(baseline, spinning) \
        == ["lock_wait_share", "scaling_serial_fraction"]


def test_scale_record_diffs_and_gates_like_a_bench_record(sweeps):
    from repro.obs.diff import build_diff, diff_is_zero, side_from_record

    record = {k: v for k, v in sweeps[1].items() if k != "_report"}
    assert moved_paths(record, sweeps[2]) == {}
    side = side_from_record(record, "scale")
    assert ("scale", "analysis", "identity-strict") in side.points
    assert ("scale", "identity-strict", "stream", "cores=4") in side.points
    assert diff_is_zero(build_diff(side, side_from_record(record, "b")))
