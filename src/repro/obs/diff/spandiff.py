"""Span-trie diff: where did the cycles move between two runs?

A single run's attribution trie (:class:`~repro.obs.spans.SpanNode`)
says where cycles went; the diff of two tries says where they *moved*.
Raw cycle totals are incomparable across runs of different length, so
every delta here is normalized **per unit of work** (a segment, a
transaction, an op — whatever the workload counts): a subtree that
costs 1.2 cycles/unit more on side B is a real regression whether the
run did 60 units or 60 000.

Self cycles are the attribution currency.  A node's *self* delta is
cycles that moved into (or out of) that exact path — not its children —
and self deltas over all paths sum exactly to the root's total delta,
so ranking by self delta names the hot path itself rather than every
ancestor above it (``dma_unmap → iotlb_invalidate`` instead of
``step``).  The inclusive (total) delta is still reported per node for
subtree-level reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.spans import SpanNode


@dataclass(frozen=True)
class SpanDelta:
    """One span path's movement between side A and side B."""

    path: Tuple[str, ...]
    a_total: int
    b_total: int
    a_self: int
    b_self: int
    a_count: int
    b_count: int
    a_units: int
    b_units: int

    # ------------------------------------------------------------------
    @property
    def a_self_per_unit(self) -> float:
        return self.a_self / self.a_units if self.a_units else 0.0

    @property
    def b_self_per_unit(self) -> float:
        return self.b_self / self.b_units if self.b_units else 0.0

    @property
    def self_delta_per_unit(self) -> float:
        """Normalized self-cycle movement; positive means B pays more."""
        return self.b_self_per_unit - self.a_self_per_unit

    @property
    def a_total_per_unit(self) -> float:
        return self.a_total / self.a_units if self.a_units else 0.0

    @property
    def b_total_per_unit(self) -> float:
        return self.b_total / self.b_units if self.b_units else 0.0

    @property
    def total_delta_per_unit(self) -> float:
        return self.b_total_per_unit - self.a_total_per_unit

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": list(self.path),
            "a_self_per_unit": round(self.a_self_per_unit, 6),
            "b_self_per_unit": round(self.b_self_per_unit, 6),
            "self_delta_per_unit": round(self.self_delta_per_unit, 6),
            "a_total_per_unit": round(self.a_total_per_unit, 6),
            "b_total_per_unit": round(self.b_total_per_unit, 6),
            "total_delta_per_unit": round(self.total_delta_per_unit, 6),
            "a_count": self.a_count,
            "b_count": self.b_count,
        }


def _index(root: Optional[SpanNode]) -> Dict[Tuple[str, ...], SpanNode]:
    """Path (excluding the synthetic root name) -> node."""
    if root is None:
        return {}
    return {path[1:]: node for path, node in root.walk() if len(path) > 1}


class SpanDiff:
    """The full union-of-paths diff between two attribution tries."""

    def __init__(self, deltas: List[SpanDelta],
                 a_units: int, b_units: int):
        self.deltas = deltas
        self.a_units = a_units
        self.b_units = b_units

    # ------------------------------------------------------------------
    @property
    def total_delta_per_unit(self) -> float:
        """Root-level normalized cycle delta (sum of all self deltas)."""
        return sum(d.self_delta_per_unit for d in self.deltas)

    def grown(self, epsilon: float = 1e-9) -> List[SpanDelta]:
        """Paths B pays more for, ranked by normalized self delta."""
        rows = [d for d in self.deltas if d.self_delta_per_unit > epsilon]
        rows.sort(key=lambda d: (-d.self_delta_per_unit, d.path))
        return rows

    def shrunk(self, epsilon: float = 1e-9) -> List[SpanDelta]:
        """Paths A pays more for, ranked by normalized self delta."""
        rows = [d for d in self.deltas if d.self_delta_per_unit < -epsilon]
        rows.sort(key=lambda d: (d.self_delta_per_unit, d.path))
        return rows

    def contribution(self, delta: SpanDelta) -> float:
        """``delta``'s signed share of the total cycle delta (0 when the
        totals cancel out — shares of a near-zero net movement carry no
        information, only float residue)."""
        total = self.total_delta_per_unit
        if abs(total) < 1e-6:
            return 0.0
        return delta.self_delta_per_unit / total

    @property
    def is_zero(self) -> bool:
        return all(abs(d.self_delta_per_unit) < 1e-9
                   and d.a_count == d.b_count for d in self.deltas)

    # ------------------------------------------------------------------
    def to_dict(self, limit: int = 8) -> Dict[str, object]:
        """JSON-ready form: totals + top grown/shrunk paths."""
        grown = self.grown()
        shrunk = self.shrunk()
        return {
            "a_units": self.a_units,
            "b_units": self.b_units,
            "total_delta_per_unit": round(self.total_delta_per_unit, 6),
            "paths": len(self.deltas),
            "grown": [d.to_dict() for d in grown[:limit]],
            "shrunk": [d.to_dict() for d in shrunk[:limit]],
            "zero": self.is_zero,
        }


def diff_span_trees(a: Optional[SpanNode], b: Optional[SpanNode],
                    a_units: int, b_units: int) -> SpanDiff:
    """Diff two attribution tries over the union of their paths.

    ``a_units``/``b_units`` are each side's units of work (the
    normalization denominators); zero units degrade to raw cycles being
    reported as 0/unit, which only happens for empty runs.
    """
    a_nodes = _index(a)
    b_nodes = _index(b)
    deltas: List[SpanDelta] = []
    for path in sorted(set(a_nodes) | set(b_nodes)):
        na = a_nodes.get(path)
        nb = b_nodes.get(path)
        deltas.append(SpanDelta(
            path=path,
            a_total=na.total_cycles if na is not None else 0,
            b_total=nb.total_cycles if nb is not None else 0,
            a_self=na.self_cycles if na is not None else 0,
            b_self=nb.self_cycles if nb is not None else 0,
            a_count=na.count if na is not None else 0,
            b_count=nb.count if nb is not None else 0,
            a_units=a_units, b_units=b_units,
        ))
    return SpanDiff(deltas, a_units, b_units)
