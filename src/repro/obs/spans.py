"""Hierarchical span profiling: causal attribution of simulated cycles.

Where the tracer answers "what happened" and the metrics registry "how
was it distributed", spans answer *where the cycles went*: every
instrumented operation (``dma_map``, ``pool_acquire``, ``copy``,
``device_access``, ``dma_unmap``, ``iotlb_invalidate``, ``lock_wait``)
opens a span on its core when it starts and closes it when it ends, and
the elapsed simulated cycles aggregate into a flamegraph-style tree
keyed by the span *path* — ``step → rx_packet → dma_unmap →
iotlb_invalidate → lock_wait`` reads exactly like the paper's "where
does strict protection lose its time" argument.

Design constraints, shared with the rest of :mod:`repro.obs`:

* **Zero simulated overhead.**  Opening or closing a span reads
  ``core.now``; it never charges cycles, takes a simulated lock, or
  advances a clock, so span-instrumented runs are cycle-identical to
  bare runs (enforced by ``tests/obs/test_zero_overhead.py``).
* **Reached through the context.**  The simulator opens and closes
  spans with :meth:`~repro.obs.context.Observability.span_begin` and
  :meth:`~repro.obs.context.Observability.span_end` under
  ``obs.enabled``, so the default (disabled) configuration pays one
  attribute check per site.
* **One stack.**  The per-core open-span stacks are also where request
  stages come from (:mod:`repro.obs.requests`): each entry counts the
  cycles of its closed children, and the context hands :meth:`end` the
  request active on the core, which takes the closing span as a stage.
* **Bounded memory.**  Spans aggregate in place into a trie of
  :class:`SpanNode`; memory is O(distinct span paths), independent of
  run length.

Spans nest *per core*: each core keeps its own open-span stack, so the
interleaved execution of the min-clock scheduler cannot tangle one
core's hierarchy with another's.  The nesting invariant — the summed
cycles of a node's children never exceed the node's own total — follows
from core clocks being monotonic.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

# Canonical span names.  These are a stable schema (documented in
# docs/observability.md); renderers, the bench runner, and the diff
# engine match on them.
SPAN_STEP = "step"                      # one scheduler work unit
SPAN_RX_PACKET = "rx_packet"            # driver RX: frame -> stack
SPAN_TX_CHUNK = "tx_chunk"              # driver TX: chunk -> wire
SPAN_DEVICE_ACCESS = "device_access"    # NIC descriptor/DMA interaction
SPAN_DMA_MAP = "dma_map"                # DmaApi.dma_map
SPAN_DMA_UNMAP = "dma_unmap"            # DmaApi.dma_unmap
SPAN_POOL_ACQUIRE = "pool_acquire"      # shadow pool acquire
SPAN_POOL_RELEASE = "pool_release"      # shadow pool release
SPAN_COPY = "copy"                      # shadow buffer memcpy
SPAN_IOTLB_INVALIDATE = "iotlb_invalidate"  # submit + completion wait
SPAN_LOCK_WAIT = "lock_wait"            # spinlock acquisition

ALL_SPAN_NAMES = (
    SPAN_STEP, SPAN_RX_PACKET, SPAN_TX_CHUNK, SPAN_DEVICE_ACCESS,
    SPAN_DMA_MAP, SPAN_DMA_UNMAP, SPAN_POOL_ACQUIRE, SPAN_POOL_RELEASE,
    SPAN_COPY, SPAN_IOTLB_INVALIDATE, SPAN_LOCK_WAIT,
)


class SpanNode:
    """One node of the attribution trie: a span name in a given context.

    ``total_cycles`` is wall time on the opening core (close minus open
    timestamp) summed over every occurrence of this path;
    ``self_cycles`` subtracts what nested children account for.
    """

    __slots__ = ("name", "count", "total_cycles", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_cycles = 0
        self.children: Dict[str, "SpanNode"] = {}

    # ------------------------------------------------------------------
    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    @property
    def child_cycles(self) -> int:
        return sum(c.total_cycles for c in self.children.values())

    @property
    def self_cycles(self) -> int:
        return self.total_cycles - self.child_cycles

    def walk(self, path: Tuple[str, ...] = ()
             ) -> Iterator[Tuple[Tuple[str, ...], "SpanNode"]]:
        """Yield ``(path, node)`` for this node and all descendants."""
        here = path + (self.name,)
        yield here, self
        for child in self.children.values():
            yield from child.walk(here)

    # ------------------------------------------------------------------
    def merge(self, other: "SpanNode") -> None:
        """Fold ``other``'s counts into this node (same-name trees)."""
        self.count += other.count
        self.total_cycles += other.total_cycles
        for name, theirs in other.children.items():
            self.child(name).merge(theirs)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form, children sorted by descending cycles."""
        row: Dict[str, object] = {
            "name": self.name,
            "count": self.count,
            "total_cycles": self.total_cycles,
            "self_cycles": self.self_cycles,
        }
        if self.children:
            row["children"] = [
                c.to_dict() for c in sorted(self.children.values(),
                                            key=lambda c: -c.total_cycles)
            ]
        return row

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanNode":
        """Rebuild a tree from :meth:`to_dict` output (baseline loading)."""
        node = cls(str(data["name"]))
        node.count = int(data.get("count", 0))
        node.total_cycles = int(data.get("total_cycles", 0))
        for child in data.get("children", ()):  # type: ignore[union-attr]
            rebuilt = cls.from_dict(child)
            node.children[rebuilt.name] = rebuilt
        return node


class SpanRecorder:
    """Per-core open-span stacks feeding one shared attribution trie."""

    __slots__ = ("root", "_stacks", "opened", "closed")

    def __init__(self) -> None:
        self.root = SpanNode("run")
        #: Per-core stack of ``[node, opened_at, child_cycles]`` for open
        #: spans, innermost last; ``child_cycles`` sums the spans closed
        #: directly inside the entry.
        self._stacks: Dict[int, List[list]] = {}
        self.opened = 0
        self.closed = 0

    # ------------------------------------------------------------------
    def begin(self, name: str, core) -> None:
        """Open span ``name`` on ``core`` at the core's current clock."""
        stack = self._stacks.get(core.cid)
        if stack is None:
            stack = self._stacks[core.cid] = []
        parent = stack[-1][0] if stack else self.root
        # The child lookup is inlined: this runs for every span.
        node = parent.children.get(name) or parent.child(name)
        stack.append([node, core.now, 0])
        self.opened += 1

    def end(self, core, request=None) -> None:
        """Close the innermost open span on ``core``.

        ``request`` is the request active on the core, if any (an
        :class:`~repro.obs.requests.RequestRecorder` record in flight);
        the span closes as one of its stages, or lowers its base when
        the span is older than the request.  Tolerates an empty stack
        (an exception may have unwound past the matching ``begin``);
        the span is simply not recorded.
        """
        stack = self._stacks.get(core.cid)
        if not stack:
            return
        node, opened_at, child_cycles = stack.pop()
        now = core.now
        duration = now - opened_at
        node.count += 1
        node.total_cycles += duration
        self.closed += 1
        depth = len(stack)
        if depth:
            stack[-1][2] += duration
        if request is not None:
            request.close_stage(node.name, opened_at, now, duration,
                                child_cycles, depth)

    def stack(self, cid: int) -> List[list]:
        """Core ``cid``'s open-span stack itself (see ``_stacks``), for
        a request to read its stages from; callers never modify it."""
        stack = self._stacks.get(cid)
        if stack is None:
            stack = self._stacks[cid] = []
        return stack

    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        return sum(len(s) for s in self._stacks.values())

    def open_paths(self) -> Dict[int, Tuple[str, ...]]:
        """Per-core path of currently-open spans (fault forensics)."""
        return {cid: tuple(entry[0].name for entry in stack)
                for cid, stack in self._stacks.items() if stack}

    def tree(self) -> SpanNode:
        """The attribution root (named ``run``; roots of real spans are
        its children)."""
        return self.root

    def to_dict(self) -> Dict[str, object]:
        return self.root.to_dict()

    def clear(self) -> None:
        self.root = SpanNode("run")
        self._stacks.clear()
        self.opened = 0
        self.closed = 0


def merge_span_trees(trees: List[SpanNode]) -> SpanNode:
    """Merge same-shaped attribution trees (e.g. one per run of a sweep)."""
    merged = SpanNode("run")
    for tree in trees:
        merged.merge(tree)
    merged.name = "run"
    return merged


def find_node(root: SpanNode,
              path: Tuple[str, ...]) -> Optional[SpanNode]:
    """Resolve a path (excluding the root's own name) to a node."""
    node = root
    for name in path:
        node = node.children.get(name)
        if node is None:
            return None
    return node
