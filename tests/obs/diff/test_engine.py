"""Engine + sides + renderers over real artifacts.

The acceptance invariant from the differential observatory: a record
diffed against itself reports zero deltas everywhere, and an injected
hot path is what the report's top-ranked span growth names.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.obs.diff import (
    build_diff,
    diff_is_zero,
    diff_to_json,
    load_side,
    render_diff_markdown,
    side_from_record,
)
from repro.bench.record import load_record

BASELINE = Path(__file__).resolve().parents[3] \
    / "benchmarks" / "results" / "baseline.json"


@pytest.fixture(scope="module")
def baseline_record():
    return load_record(str(BASELINE))


def test_baseline_self_diff_is_zero(baseline_record):
    a = side_from_record(baseline_record, "A")
    b = side_from_record(copy.deepcopy(baseline_record), "B")
    diff = build_diff(a, b)
    assert diff_is_zero(diff)
    assert diff["summary"]["verdict"] == "zero deltas everywhere"
    assert diff["matched"] == diff["a"]["points"] == diff["b"]["points"]
    assert not diff["only_a"] and not diff["only_b"]


def test_one_loader_keys_rows_spans_and_sections(baseline_record):
    side = side_from_record(baseline_record, "x")
    assert side.kind == "bench"
    assert ("fig03", "copy", "spans") in side.points
    record = {"figures": {
        "scale": {
            "series": [{"scheme": "copy", "workload": "stream",
                        "cores": 2, "units": 10, "throughput_gbps": 1.5},
                       {"scheme": "copy", "workload": "stream",
                        "cores": 4, "units": 10, "throughput_gbps": 2.5}],
            "spans": {"copy": {"name": "run", "count": 0,
                               "total_cycles": 80, "children": []}},
            "workload": "stream", "cores": [2, 4],
            "analysis": {"copy": {"serial_fraction": 0.2}},
            "queueing": {"copy": [{"cores": 2}]},
        },
    }}
    side = side_from_record(record, "r")
    assert side.keys() == [
        ("scale", "analysis", "copy"),
        ("scale", "copy", "spans"),
        ("scale", "copy", "stream", "cores=2"),
        ("scale", "copy", "stream", "cores=4"),
    ]
    assert side.points[("scale", "copy", "spans")].units == 20
    assert side.points[("scale", "analysis", "copy")].metrics \
        == {"serial_fraction": 0.2}


def test_injected_hot_path_tops_the_report(baseline_record):
    mutated = copy.deepcopy(baseline_record)
    fig = mutated["figures"]["fig03"]
    tree = fig["spans"]["identity-strict"]

    def find(node, name):
        if node["name"] == name:
            return node
        for child in node.get("children", ()):
            hit = find(child, name)
            if hit is not None:
                return hit
        return None

    victim = find(tree, "iotlb_invalidate")
    assert victim is not None
    extra = victim["total_cycles"] * 4
    victim["total_cycles"] += extra
    # Propagate inclusively so the recorder invariant holds.
    def bump(node):
        if find(node, "iotlb_invalidate") is not None:
            node["total_cycles"] += extra
        for child in node.get("children", ()):
            bump(child)
    for child in tree.get("children", ()):
        bump(child)
    tree["total_cycles"] += extra

    diff = build_diff(side_from_record(baseline_record, "A"),
                      side_from_record(mutated, "B"))
    assert not diff_is_zero(diff)
    top = diff["summary"]["top_span"]
    assert top is not None
    assert top["path"][-1] == "iotlb_invalidate"
    assert "identity-strict" in top["key"]


def test_metric_movement_is_reported_with_rel(baseline_record):
    mutated = copy.deepcopy(baseline_record)
    row = mutated["figures"]["fig03"]["series"][0]
    row["throughput_gbps"] = row["throughput_gbps"] * 2
    diff = build_diff(side_from_record(baseline_record, "A"),
                      side_from_record(mutated, "B"))
    assert diff["summary"]["changed_metrics"] == 1
    moved = [entry for section in diff["metrics"]
             for entry in section["changed"]]
    assert len(moved) == 1
    assert moved[0]["metric"] == "throughput_gbps"
    assert moved[0]["rel"] == pytest.approx(1.0)


def test_render_is_pure_and_json_is_canonical(baseline_record):
    a = side_from_record(baseline_record, "A")
    b = side_from_record(baseline_record, "B")
    diff1 = build_diff(a, b)
    diff2 = build_diff(a, b)
    assert diff_to_json(diff1) == diff_to_json(diff2)
    assert render_diff_markdown(diff1) == render_diff_markdown(diff2)
    parsed = json.loads(diff_to_json(diff1))
    assert parsed["schema"] == "repro-diff/v1"
    md = render_diff_markdown(diff1)
    assert md.startswith("# Differential report")
    assert "zero deltas everywhere" in md


def test_load_side_uses_path_as_default_label():
    side = load_side(str(BASELINE))
    assert side.label == str(BASELINE)
    assert side.points
