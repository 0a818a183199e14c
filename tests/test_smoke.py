"""benchmarks/smoke.py's checks: any simulated drift fails the exact
baseline check (host-dependent fields and the git SHA never do), and a
figure without a simulator-throughput rate fails the throughput check."""

import copy
import importlib.util
import json
import os

from repro.bench.regression import compare_records

_HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(_HERE, os.pardir, "benchmarks", "smoke.py")
BASELINE = os.path.join(_HERE, os.pardir, "benchmarks", "results",
                        "baseline.json")


def _load():
    spec = importlib.util.spec_from_file_location("smoke", SCRIPT)
    smoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(smoke)
    with open(BASELINE) as fh:
        baseline = json.load(fh)
    return smoke, baseline


def test_drift_ignores_host_fields_and_git_sha():
    smoke, baseline = _load()
    rerun = copy.deepcopy(baseline)
    rerun["created"] = "2030-01-01T00:00:00+00:00"
    rerun["fingerprint"]["git_sha"] = "0" * 40
    for entry in rerun["throughput"].values():
        entry["wall_seconds"] *= 3
        entry["sim_cycles_per_wall_second"] //= 3
    assert smoke.baseline_drift(baseline, rerun) == []


def test_drift_names_a_shift_the_gate_lets_through():
    smoke, baseline = _load()
    rerun = copy.deepcopy(baseline)
    row = rerun["figures"]["fig03"]["series"][0]
    row["throughput_gbps"] *= 1.01
    del rerun["figures"]["fig03"]["series"][1]["scheme"]
    # Inside the gate's tolerance band...
    assert compare_records(baseline, rerun) == []
    # ...but not identical.
    drift = smoke.baseline_drift(baseline, rerun)
    assert len(drift) == 2
    assert drift[0].startswith("$.figures.fig03.series[0].throughput_gbps: ")
    assert drift[1] == "$.figures.fig03.series[1].scheme"


def test_missing_throughput_names_zeroed_and_absent_figures():
    smoke, baseline = _load()
    assert smoke.missing_throughput(baseline) == []
    rerun = copy.deepcopy(baseline)
    rerun["throughput"]["fig05"]["sim_cycles_per_wall_second"] = 0
    del rerun["throughput"]["fleet"]
    assert smoke.missing_throughput(rerun) == ["fig05", "fleet"]
