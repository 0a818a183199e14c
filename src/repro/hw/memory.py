"""Simulated physical memory with real byte backing.

All DMA in the simulation moves *actual bytes* through this model: device
writes land in page frames here, the shadow-pool copies read and write
these frames, and the attack framework inspects them.  Frames are
materialized lazily (a ``dict`` keyed by page-frame number), so a machine
can expose many gigabytes of address space while only the touched pages
cost host memory.

Each NUMA node owns a disjoint physical address range (64 GiB apart), so
the node of any physical address can be recovered arithmetically — the
shadow pool uses this to keep copies NUMA-local (§5.3).
"""

from __future__ import annotations

from typing import List

from repro.errors import MemoryAccessError
from repro.sim.units import PAGE_SHIFT, PAGE_SIZE

#: Physical address stride between NUMA node regions (64 GiB).
NODE_REGION_SHIFT = 36
NODE_REGION_BYTES = 1 << NODE_REGION_SHIFT
_NODE_OFFSET_MASK = NODE_REGION_BYTES - 1
_PAGE_MASK = PAGE_SIZE - 1


class _Frames(dict):
    """Page frames by pfn, materialized (zeroed) on first touch — reads
    included, so :attr:`PhysicalMemory.resident_pages` counts every
    frame ever accessed."""

    def __missing__(self, pfn: int) -> bytearray:
        frame = self[pfn] = bytearray(PAGE_SIZE)
        return frame


class PhysicalMemory:
    """Byte-addressable physical memory split into per-NUMA-node regions."""

    def __init__(self, num_nodes: int, node_bytes: int = NODE_REGION_BYTES):
        if num_nodes < 1:
            raise MemoryAccessError("machine needs at least one NUMA node")
        if node_bytes > NODE_REGION_BYTES:
            raise MemoryAccessError(
                f"node size {node_bytes:#x} exceeds region stride"
            )
        self.num_nodes = num_nodes
        self.node_bytes = node_bytes
        self._frames = _Frames()

    # ------------------------------------------------------------------
    # Address-space geometry.
    # ------------------------------------------------------------------
    def node_base(self, node: int) -> int:
        """First physical address belonging to NUMA ``node``."""
        self._check_node(node)
        return node << NODE_REGION_SHIFT

    def node_region(self, node: int) -> tuple[int, int]:
        """``(base, size)`` of the physical range owned by ``node``."""
        return self.node_base(node), self.node_bytes

    def node_of(self, pa: int) -> int:
        """NUMA node that owns physical address ``pa``."""
        node = pa >> NODE_REGION_SHIFT
        if not 0 <= node < self.num_nodes or (pa - (node << NODE_REGION_SHIFT)) >= self.node_bytes:
            raise MemoryAccessError(f"physical address {pa:#x} outside any node")
        return node

    def contains(self, pa: int, size: int = 1) -> bool:
        """Whether ``[pa, pa+size)`` lies entirely inside one node's region."""
        node = pa >> NODE_REGION_SHIFT
        return (size > 0 and 0 <= node < self.num_nodes
                and (pa & _NODE_OFFSET_MASK) + size <= self.node_bytes)

    # ------------------------------------------------------------------
    # Byte access.
    # ------------------------------------------------------------------
    def write(self, pa: int, data: bytes) -> None:
        """Write ``data`` starting at physical address ``pa``.

        The whole range is checked before any byte lands.
        """
        size = len(data)
        if not size:
            return
        if not self.contains(pa, size):
            raise MemoryAccessError(
                f"write of {size} bytes at {pa:#x} leaves physical memory"
            )
        frames = self._frames
        pfn = pa >> PAGE_SHIFT
        start = pa & _PAGE_MASK
        if start + size <= PAGE_SIZE:
            frames[pfn][start:start + size] = data
            return
        view = memoryview(data)
        offset = 0
        while offset < size:
            chunk = PAGE_SIZE - start
            if chunk > size - offset:
                chunk = size - offset
            frames[pfn][start:start + chunk] = view[offset:offset + chunk]
            offset += chunk
            pfn += 1
            start = 0

    def read(self, pa: int, size: int) -> bytes:
        """Read ``size`` bytes starting at physical address ``pa``."""
        if size == 0:
            return b""
        if not self.contains(pa, size):
            raise MemoryAccessError(
                f"read of {size} bytes at {pa:#x} leaves physical memory"
            )
        frames = self._frames
        pfn = pa >> PAGE_SHIFT
        start = pa & _PAGE_MASK
        if start + size <= PAGE_SIZE:
            return bytes(frames[pfn][start:start + size])
        # Multi-page: join whole frames and frame views, so each byte is
        # copied once, into the result.
        parts: List[object] = []
        remaining = size
        while remaining:
            chunk = PAGE_SIZE - start
            if chunk > remaining:
                chunk = remaining
            frame = frames[pfn]
            parts.append(frame if chunk == PAGE_SIZE
                         else memoryview(frame)[start:start + chunk])
            remaining -= chunk
            pfn += 1
            start = 0
        return b"".join(parts)

    def copy(self, dst_pa: int, src_pa: int, size: int) -> None:
        """Copy ``size`` bytes between physical ranges (the memcpy engine).

        memmove semantics: the source is read out whole before the
        destination is written, so overlapping ranges copy correctly.
        """
        if size == 0:
            return
        self.write(dst_pa, self.read(src_pa, size))

    def fill(self, pa: int, size: int, value: int = 0) -> None:
        """Fill ``[pa, pa+size)`` with ``value``."""
        self.write(pa, bytes([value]) * size)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def resident_pages(self) -> int:
        """Number of frames actually materialized (touched) so far."""
        return len(self._frames)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise MemoryAccessError(f"no such NUMA node: {node}")
