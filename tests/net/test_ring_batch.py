"""Ring setup in one pass leaves the state the per-buffer loop leaves.

The driver fills each RX ring with one ``dma_map_fresh`` call.  Its base
implementation is the per-buffer loop; with observability and fault
injection off, no-iommu, identity-IOVA zero-copy and copy run one pass
instead.  Teardown is one path: ``dma_unmap`` and ``free_pages`` per
buffer, whatever observes the run.  Each case builds two identical
systems, pins one to the base loop, and compares the whole simulated
state after ``setup_queues`` and, after the same RX traffic on both,
after ``teardown_queues`` (so a ring the pass set up tears down to the
state of a ring the loop set up): core clocks, busy cycles and
breakdowns, every lock's timestamps and counters, the buddy, IOVA,
page-table, IOTLB and shadow-pool state, ring and buffer memory, driver
slots and deficits, and the DMA API's live mappings.
"""

from __future__ import annotations

import enum
import types
from collections import deque

import pytest

from repro.dma.api import DmaApi
from repro.dma.registry import ALL_SCHEMES
from repro.net.packets import build_frame
from repro.sim.costmodel import CostModel
from repro.system import System, SystemConfig

#: The schemes of perfbench's ``rx-multicore`` workload.
RX_MULTICORE = ("no-iommu", "copy", "identity-deferred", "identity-strict",
                "identity-strict-percore")

#: The ring setup entry point, whose base is the loop.
_ROUTES = ("dma_map_fresh",)

_ATOMS = frozenset((type(None), bool, int, float, str, bytes))

#: Values left out of a state image: code, and the shared cost model.
_SKIPPED = (types.FunctionType, types.MethodType, types.BuiltinFunctionType,
            type, CostModel)


def state(root) -> list:
    """A flat plain-data image of everything reachable from ``root``.

    Every object and container reachable from ``root`` becomes one
    entry, in discovery order; an entry names what it holds by value
    (numbers, strings, bytes, enum values) or by the entry number of the
    object it points to, so aliasing is compared too.  Objects list
    their attributes, containers their items in order (sets sorted).
    Code is left out: the two systems differ only in the methods bound
    to the looped one.
    """
    images: list = []
    numbers: dict = {id(root): 0}
    keep = [root]               # holds every object, so ids stay unique
    pending = deque([root])
    slots: dict = {}            # type -> its __slots__ names

    def ref(value):
        kind = type(value)
        if kind in _ATOMS:
            return value
        if isinstance(value, enum.Enum):
            return value.value
        if kind in (bytearray, memoryview):
            return bytes(value)
        if isinstance(value, _SKIPPED):
            return None
        number = numbers.get(id(value))
        if number is None:
            number = numbers[id(value)] = len(keep)
            keep.append(value)
            pending.append(value)
        return ("@", number)

    while pending:
        obj = pending.popleft()
        if isinstance(obj, dict):
            images.append(("dict", [(ref(k), ref(v))
                                    for k, v in obj.items()]))
        elif isinstance(obj, (set, frozenset)):
            images.append(("set", sorted(map(ref, obj), key=repr)))
        elif isinstance(obj, (list, tuple, deque)):
            images.append((type(obj).__name__, list(map(ref, obj))))
        else:
            kind = type(obj)
            names = slots.get(kind)
            if names is None:
                names = slots[kind] = [name for cls in kind.__mro__
                                       for name in getattr(cls, "__slots__",
                                                           ())]
            fields = dict(vars(obj)) if hasattr(obj, "__dict__") else {}
            for name in names:
                if hasattr(obj, name):
                    fields[name] = getattr(obj, name)
            images.append((kind.__name__,
                           [(name, ref(value))
                            for name, value in fields.items()
                            if type(value) is not types.MethodType]))
    return images


def _system(scheme: str, cores: int, rx_buf_size: int, rx_ring_size: int,
            batched: bool) -> System:
    system = System.build(SystemConfig(scheme=scheme, cores=cores,
                                       rx_buf_size=rx_buf_size,
                                       rx_ring_size=rx_ring_size))
    if not batched:
        api = system.dma_api
        for name in _ROUTES:
            setattr(api, name, types.MethodType(getattr(DmaApi, name), api))
    return system


def _traffic(system: System, frames_per_queue: int) -> None:
    """Deliver a few frames on every queue (some larger than a 2 KB
    buffer, which the NIC drops), so teardown meets used buffers,
    cached translations and shadows holding stale lengths."""
    cores = system.machine.num_cores
    for rnd in range(frames_per_queue):
        for qid in range(system.config.resolved_queues()):
            core = system.machine.core(qid % cores)
            size = (64, 1400, 4000)[(rnd + qid) % 3]
            system.driver.receive_one(core, qid,
                                      build_frame(size, mtu=8000, seq=rnd))


def _assert_same_state(batched: System, looped: System, when: str) -> None:
    for a, b in zip(batched.machine.cores, looped.machine.cores):
        assert (a.now, a.busy_cycles, dict(a.breakdown)) == \
            (b.now, b.busy_cycles, dict(b.breakdown)), \
            f"core {a.cid} diverged {when}"
    diff = _first_difference(state(batched), state(looped))
    assert diff is None, f"state diverged {when} at {diff}"


def _first_difference(a: list, b: list):
    """The first entry two images disagree on (``None`` when equal)."""
    for number, (x, y) in enumerate(zip(a, b)):
        if x != y:
            if x[0] != y[0] or len(x[1]) != len(y[1]):
                return f"entry {number}: {x!r:.300} != {y!r:.300}"
            for item_x, item_y in zip(x[1], y[1]):
                if item_x != item_y:
                    return f"entry {number} ({x[0]}): {item_x!r} != {item_y!r}"
    return None if len(a) == len(b) else "image lengths differ"


def _compare(scheme: str, cores: int, rx_buf_size: int,
             rx_ring_size: int = 512, frames_per_queue: int = 3) -> None:
    """Set both systems up, then run the same traffic on both and tear
    them down.  The traffic and the teardown run the same code on both
    systems, so equal state after setup implies equal state before
    teardown; the image after it checks that nothing the pass left
    behind (a lock stamp, a free-list order) shows there."""
    batched = _system(scheme, cores, rx_buf_size, rx_ring_size,
                      batched=True)
    looped = _system(scheme, cores, rx_buf_size, rx_ring_size,
                     batched=False)
    for system in (batched, looped):
        system.setup_queues()
    _assert_same_state(batched, looped, "after setup_queues")
    for system in (batched, looped):
        _traffic(system, frames_per_queue)
        system.teardown_queues()
    _assert_same_state(batched, looped, "after teardown_queues")
    assert batched.dma_api.live_mappings == 0


@pytest.mark.parametrize("rx_buf_size", [2048, 16384])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_batched_ring_setup_matches_loop_2_cores(scheme, rx_buf_size):
    # 255 buffers a queue: teardown still crosses the deferred schemes'
    # 250-entry flush.
    _compare(scheme, cores=2, rx_buf_size=rx_buf_size, rx_ring_size=256)


@pytest.mark.parametrize("scheme", RX_MULTICORE)
def test_batched_ring_setup_matches_loop_16_cores(scheme):
    _compare(scheme, cores=16, rx_buf_size=2048, frames_per_queue=2)


@pytest.mark.parametrize("observed", ["captured", "faulted", "neither"])
def test_observed_setup_maps_each_buffer(observed):
    """A recorder or a fault plan keeps ring setup on the per-buffer
    loop, so every map opens its span and consults its fault sites; an
    unobserved copy system maps none of its ring through ``dma_map``.
    Teardown unmaps every buffer through ``dma_unmap`` in all three."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.obs.context import Observability

    extra = {"captured": dict(obs=Observability.capture()),
             "faulted": dict(faults=FaultInjector(FaultPlan())),
             "neither": {}}[observed]
    system = System.build(SystemConfig(scheme="copy", cores=1,
                                       rx_ring_size=64, **extra))
    api = system.dma_api
    maps, unmaps = [], []
    dma_map, dma_unmap = api.dma_map, api.dma_unmap
    api.dma_map = lambda *args: maps.append(args) or dma_map(*args)
    api.dma_unmap = lambda *args: unmaps.append(args) or dma_unmap(*args)
    system.setup_queues()
    assert len(maps) == (0 if observed == "neither" else 63)
    system.teardown_queues()
    assert len(unmaps) == 63
