"""Span-trie diff semantics: normalization, ranking, conservation.

The load-bearing invariant: self-cycle deltas over *all* union paths
sum exactly to the root-level total delta, so ranking by self delta
names the hot path itself instead of every ancestor above it.
"""

import pytest

from repro.obs.diff.spandiff import diff_span_trees
from repro.obs.spans import SpanNode


def tree(spec, name="run"):
    """Build a SpanNode tree from {path-tuple: (count, total_cycles)}."""
    root = SpanNode(name)
    root.count = 1
    for path, (count, total) in spec.items():
        node = root
        for part in path:
            node = node.children.setdefault(part, SpanNode(part))
        node.count = count
        node.total_cycles = total
    # Parent totals must cover children (recorder invariant).
    def fix(node):
        for child in node.children.values():
            fix(child)
        node.total_cycles = max(node.total_cycles, node.child_cycles)
    fix(root)
    return root


BASE = {
    ("step",): (10, 1000),
    ("step", "dma_unmap"): (10, 600),
    ("step", "dma_unmap", "iotlb_invalidate"): (10, 400),
}


def test_self_deltas_sum_to_total_delta():
    a = tree(BASE)
    b = tree({
        ("step",): (10, 1600),
        ("step", "dma_unmap"): (10, 1200),
        ("step", "dma_unmap", "iotlb_invalidate"): (10, 1000),
    })
    diff = diff_span_trees(a, b, a_units=10, b_units=10)
    total = (b.total_cycles / 10) - (a.total_cycles / 10)
    assert diff.total_delta_per_unit == pytest.approx(total)
    assert sum(d.self_delta_per_unit for d in diff.deltas) \
        == pytest.approx(total)


def test_grown_names_the_hot_leaf_not_its_ancestors():
    a = tree(BASE)
    # Only the iotlb_invalidate leaf got slower; ancestors grow by
    # inclusion but their *self* cycles are unchanged.
    b = tree({
        ("step",): (10, 1000 + 300),
        ("step", "dma_unmap"): (10, 600 + 300),
        ("step", "dma_unmap", "iotlb_invalidate"): (10, 400 + 300),
    })
    diff = diff_span_trees(a, b, 10, 10)
    grown = diff.grown()
    assert grown[0].path == ("step", "dma_unmap", "iotlb_invalidate")
    assert grown[0].self_delta_per_unit == pytest.approx(30.0)
    assert len(grown) == 1            # ancestors did not grow in self
    assert diff.contribution(grown[0]) == pytest.approx(1.0)


def test_normalization_survives_different_run_lengths():
    a = tree(BASE)
    scaled = {path: (count * 6, total * 6)
              for path, (count, total) in BASE.items()}
    b = tree(scaled)
    diff = diff_span_trees(a, b, a_units=10, b_units=60)
    # 6x the work at 6x the units: identical per-unit cost everywhere.
    for delta in diff.deltas:
        assert delta.self_delta_per_unit == pytest.approx(0.0)
    assert not diff.is_zero            # counts still differ
    assert diff.grown() == [] and diff.shrunk() == []


def test_union_covers_paths_missing_on_either_side():
    a = tree(BASE)
    b = tree({
        ("step",): (10, 1000),
        ("step", "dma_unmap"): (10, 600),
        ("step", "dma_unmap", "copy"): (10, 500),
    })
    diff = diff_span_trees(a, b, 10, 10)
    paths = {d.path for d in diff.deltas}
    assert ("step", "dma_unmap", "iotlb_invalidate") in paths
    assert ("step", "dma_unmap", "copy") in paths
    grown = {d.path for d in diff.grown()}
    shrunk = {d.path for d in diff.shrunk()}
    assert ("step", "dma_unmap", "copy") in grown
    assert ("step", "dma_unmap", "iotlb_invalidate") in shrunk


def test_self_diff_is_zero():
    a = tree(BASE)
    diff = diff_span_trees(a, tree(BASE), 10, 10)
    assert diff.is_zero
    assert diff.grown() == [] and diff.shrunk() == []
    assert diff.total_delta_per_unit == pytest.approx(0.0)
