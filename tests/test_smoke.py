"""benchmarks/smoke.py's checks: any simulated drift fails the gate it
runs against the baseline (host-dependent fields and the git SHA never
do), and a figure without a simulator-throughput rate fails the
throughput check."""

import copy
import importlib.util
import json
import os

from repro.bench.regression import gate_records, moved_paths

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
    _, baseline = _load()
    rerun = copy.deepcopy(baseline)
    rerun["created"] = "2030-01-01T00:00:00+00:00"
    rerun["fingerprint"]["git_sha"] = "0" * 40
    for entry in rerun["throughput"].values():
        entry["wall_seconds"] *= 3
        entry["sim_cycles_per_wall_second"] //= 3
    assert gate_records(baseline, rerun)[0] == 0


def test_drift_names_a_one_percent_shift():
    _, baseline = _load()
    rerun = copy.deepcopy(baseline)
    row = rerun["figures"]["fig03"]["series"][0]
    row["throughput_gbps"] *= 1.01
    del rerun["figures"]["fig03"]["series"][1]["scheme"]
    paths = moved_paths(baseline, rerun)["fig03"]
    assert len(paths) == 2
    prefix = ("$.figures.fig03.series[no-iommu tcp_stream_rx cores=1 "
              "direction=rx message_size=")
    assert paths[0].startswith(f"{prefix}1024].throughput_gbps: ")
    assert paths[1] == f"{prefix}16384].scheme"
    assert gate_records(baseline, rerun)[0] == 1


def test_missing_throughput_names_zeroed_and_absent_figures():
    smoke, baseline = _load()
    assert smoke.missing_throughput(baseline) == []
    rerun = copy.deepcopy(baseline)
    rerun["throughput"]["fig05"]["sim_cycles_per_wall_second"] = 0
    del rerun["throughput"]["fig11"]
    assert smoke.missing_throughput(rerun) == ["fig05", "fig11"]
