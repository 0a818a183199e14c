"""Host-speed normalisation: host seconds expressed in *reference seconds*.

The host this benchmark runs on shares its cores with other tenants, and
its speed changes for seconds at a time: a pure-Python loop can run 1.5–2×
slower for a while and then recover.  Raw wall time therefore does not
repeat between invocations.

perfbench runs a fixed :class:`ReferenceKernel` immediately before and
after every config and reports each host time of the config as
``raw_s × REF_NOMINAL_S / mean(kernel before, kernel after)``
(:func:`reference_scale`): one reference second is the time the host
would take at the speed where the kernel takes ``REF_NOMINAL_S``.

The kernel never imports the simulator: a change to ``repro`` cannot
change the yardstick it is measured with.  Its work mirrors the
simulator's, because host slowdowns hit memory-heavy and
interpreter-heavy code differently: method calls and object churn on
small slotted objects, lookups in a dict and a linked structure larger
than the per-core caches, 2 KB copies inside 4 MiB of bytearray, and a
freshly allocated block whose pages are touched.
"""

from __future__ import annotations

import gc
import random
import time

#: Iterations of one probe of the kernel (2–3 ms on the reference host).
PROBE_STEPS = 1500
#: Probes per kernel run (about 0.1 s); the kernel's time is their
#: median, so a probe the host interrupted does not move it.
KERNEL_PROBES = 32
#: Median probe time, in seconds, that defines one reference second:
#: the typical median between configs on the reference host (2-vCPU
#: Intel Xeon VM, Python 3.11), so reference and wall seconds are close
#: there.
REF_NOMINAL_S = 0.0025

_TABLE_SIZE = 1 << 17
_ARENA_BYTES = 4 << 20
_FRESH_BYTES = 256 << 10


def reference_scale(before_s: float, after_s: float) -> float:
    """Reference seconds per host second of a stretch of time, given the
    kernel's times right before and right after it."""
    return REF_NOMINAL_S / ((before_s + after_s) / 2)


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.next = None

    def bump(self, n: int) -> int:
        self.value += n
        return self.value


class ReferenceKernel:
    """The fixed reference work, with its working set built once."""

    def __init__(self) -> None:
        rng = random.Random(20160402)
        nodes = [_Node(i, i & 0xFF) for i in range(_TABLE_SIZE)]
        order = list(range(_TABLE_SIZE))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            nodes[a].next = nodes[b]
        nodes[order[-1]].next = nodes[order[0]]
        self.cursor = nodes[order[0]]
        self.table = {(i * 2654435761) & 0xFFFFFFFF: node
                      for i, node in enumerate(nodes)}
        self.keys = list(self.table)
        rng.shuffle(self.keys)
        self.key_pos = 0
        self.arena = bytearray(_ARENA_BYTES)
        self.offsets = [rng.randrange(0, _ARENA_BYTES - 2048)
                        for _ in range(1024)]
        self.probe()

    def time_s(self) -> float:
        """Collect garbage, then run :data:`KERNEL_PROBES` probes with
        the collector off; returns the median probe time."""
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        times = []
        try:
            for _ in range(KERNEL_PROBES):
                start = time.perf_counter()
                self.probe()
                times.append(time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
        times.sort()
        return times[len(times) // 2]

    def probe(self) -> int:
        """Run the fixed reference work once; returns a checksum."""
        node = self.cursor
        keys, table = self.keys, self.table
        arena, offsets = self.arena, self.offsets
        pos = self.key_pos
        nkeys = len(keys)
        recent = {}
        fresh = bytearray(_FRESH_BYTES)
        acc = 0
        for i in range(PROBE_STEPS):
            node = node.next
            acc += node.bump(1) & 0xFF
            acc += table[keys[pos]].key & 1
            pos = (pos + 1) % nkeys
            item = _Node(i, acc)
            recent[i & 0x3FF] = item
            acc += item.bump(i) & 1
            if i & 3 == 0:
                src = offsets[i & 1023]
                dst = offsets[(i * 7 + pos) & 1023]
                arena[dst:dst + 2048] = arena[src:src + 2048]
            if i & 15 == 0:
                fresh[(i * 4096) % _FRESH_BYTES] = i & 0xFF
        self.cursor = node
        self.key_pos = pos
        return acc
