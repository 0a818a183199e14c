"""Regression-gate delegation: failing figures emit diff artifacts."""

import copy
from pathlib import Path

from repro.bench.record import load_record
from repro.bench.regression import (
    gate_against_baseline,
    gate_records,
    moved_paths,
)

BASELINE = Path(__file__).resolve().parents[3] \
    / "benchmarks" / "results" / "baseline.json"


def _inject_regression(record):
    """Slow one strict point and grow its invalidation subtree."""
    mutated = copy.deepcopy(record)
    fig = mutated["figures"]["fig03"]
    for row in fig["series"]:
        if row["scheme"] == "identity-strict":
            row["us_per_unit"] = row["us_per_unit"] * 2
    tree = fig["spans"]["identity-strict"]

    def grow(node):
        hit = 0
        for child in node.get("children", ()):
            hit += grow(child)
        if node["name"] == "iotlb_invalidate":
            hit += node["total_cycles"] * 4
            node["total_cycles"] += hit
        elif hit:
            node["total_cycles"] += hit
        return hit

    grow(tree)
    return mutated


def test_gate_writes_diff_artifact_naming_the_hot_path(tmp_path, capsys):
    baseline = load_record(str(BASELINE))
    current = _inject_regression(baseline)
    assert list(moved_paths(baseline, current)) == ["fig03"]

    rc = gate_against_baseline(str(BASELINE), current,
                               out_dir=str(tmp_path))
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    artifact = tmp_path / "diff_fig03.md"
    assert str(artifact) in out
    assert artifact.exists()
    text = artifact.read_text()
    # The top-ranked span growth names the injected hot path.
    verdict = next(line for line in text.splitlines()
                   if "**Verdict**" in line)
    assert "iotlb_invalidate" in verdict
    assert "identity-strict" in verdict


def test_passing_gate_writes_nothing(tmp_path, capsys):
    baseline = load_record(str(BASELINE))
    rc = gate_against_baseline(str(BASELINE), copy.deepcopy(baseline),
                               out_dir=str(tmp_path))
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_write_gate_diffs_one_artifact_per_regressed_figure(tmp_path):
    baseline = load_record(str(BASELINE))
    current = _inject_regression(baseline)
    status, _ = gate_records(baseline, current, str(tmp_path))
    assert status == 1
    assert [p.name for p in tmp_path.iterdir()] == ["diff_fig03.md"]
