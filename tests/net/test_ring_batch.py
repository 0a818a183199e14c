"""Ring setup in one pass leaves the state the per-buffer loop leaves.

The driver fills each RX ring with one ``dma_map_fresh`` call.  Its base
implementation is the per-buffer loop; with no fault plan armed and
nothing but the exposure accountant recording — an uncaptured run, or a
captured one inside ``Observability.exposure_only``, where
``System.setup_queues`` runs — no-iommu, identity-IOVA zero-copy and
copy run one pass instead, which reports its maps to exposure in one
event.  Teardown is one path: ``dma_unmap`` and ``free_pages`` per
buffer, whatever observes the run.  Each case builds two identical
systems, pins one to the base loop, and compares the whole simulated
state after ``setup_queues`` and, after the same RX traffic on both,
after ``teardown_queues`` (so a ring the pass set up tears down to the
state of a ring the loop set up): core clocks, busy cycles and
breakdowns, every lock's timestamps and counters, the buddy, IOVA,
page-table, IOTLB and shadow-pool state, ring and buffer memory, driver
slots and deficits, and the DMA API's live mappings.  A captured case
gives both systems a capture, so the image also holds every recorder:
the exposure domains' pages, live maps and history, the
``exposure.surface_bytes`` series with its stride, and the
``exposure.map_excess_bytes`` histogram.
"""

from __future__ import annotations

import enum
import types
from collections import deque

import pytest

from repro.dma.api import DmaApi
from repro.dma.registry import ALL_SCHEMES
from repro.errors import PoolExhaustedError
from repro.iommu.page_table import Perm, PteEntry
from repro.net.packets import build_frame
from repro.obs.context import Observability
from repro.sim.costmodel import CostModel
from repro.sim.units import PAGE_SHIFT
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
            batched: bool, captured: bool = False,
            scheme_kwargs: dict | None = None) -> System:
    extra = dict(obs=Observability.capture()) if captured else {}
    system = System.build(SystemConfig(scheme=scheme, cores=cores,
                                       rx_buf_size=rx_buf_size,
                                       rx_ring_size=rx_ring_size,
                                       scheme_kwargs=scheme_kwargs or {},
                                       **extra))
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
        for qid in range(cores):
            core = system.machine.core(qid)
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


def _assert_exposure_recorded(system: System, buffers: int) -> None:
    """The captured image compares something: exposure saw ``buffers``
    ring maps (none without a domain), and nothing else recorded the
    setup."""
    obs = system.machine.obs
    if system.dma_api.domain_id is None:
        buffers = 0
    summary = obs.exposure.summary()
    assert sum(d["dma_maps"] for d in summary["domains"].values()) \
        == buffers
    metrics = obs.metrics.snapshot()
    if buffers:
        assert metrics["series"]["exposure.surface_bytes"]["samples"]
        assert metrics["histograms"]["exposure.map_excess_bytes"]["count"] \
            == buffers
    assert all(name.startswith("exposure.")
               for kind in metrics.values() for name in kind)
    assert len(obs.tracer) == 0 and not obs.spans.tree().children


def _compare(scheme: str, cores: int, rx_buf_size: int,
             rx_ring_size: int = 512, frames_per_queue: int = 3,
             captured: bool = False) -> None:
    """Set both systems up, then run the same traffic on both and tear
    them down.  The traffic and the teardown run the same code on both
    systems, so equal state after setup implies equal state before
    teardown; the image after it checks that nothing the pass left
    behind (a lock stamp, a free-list order, an exposure stamp) shows
    there."""
    batched = _system(scheme, cores, rx_buf_size, rx_ring_size,
                      batched=True, captured=captured)
    looped = _system(scheme, cores, rx_buf_size, rx_ring_size,
                     batched=False, captured=captured)
    for system in (batched, looped):
        system.setup_queues()
    _assert_same_state(batched, looped, "after setup_queues")
    if captured:
        _assert_exposure_recorded(batched, cores * (rx_ring_size - 1))
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


@pytest.mark.parametrize("rx_buf_size", [2048, 16384])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_captured_ring_setup_matches_loop_2_cores(scheme, rx_buf_size):
    _compare(scheme, cores=2, rx_buf_size=rx_buf_size, rx_ring_size=256,
             captured=True)


@pytest.mark.parametrize("scheme", RX_MULTICORE)
def test_captured_ring_setup_matches_loop_16_cores(scheme):
    _compare(scheme, cores=16, rx_buf_size=2048, frames_per_queue=2,
             captured=True)


@pytest.mark.parametrize("captured", [False, True],
                         ids=["uncaptured", "captured"])
def test_pool_cap_mid_ring_matches_loop(captured):
    """Copy's pool cap runs out on the first ring: the rest of it, and
    the whole second ring, go to ``_map_fresh_one`` and take the bounce
    rung.  The pass reports the maps it made before handing the first
    buffer over, so the surface series and the page history keep the
    loop's order."""
    kwargs = dict(max_pool_bytes=100 * 4096, bounce_fallback=True)
    batched = _system("copy", 2, 2048, 256, batched=True, captured=captured,
                      scheme_kwargs=kwargs)
    looped = _system("copy", 2, 2048, 256, batched=False, captured=captured,
                     scheme_kwargs=kwargs)
    for system in (batched, looped):
        system.setup_queues()
    assert batched.dma_api.bounce_maps == 2 * 255 - 100
    _assert_same_state(batched, looped, "after setup_queues")
    for system in (batched, looped):
        _traffic(system, 2)
        system.teardown_queues()
    _assert_same_state(batched, looped, "after teardown_queues")


@pytest.mark.parametrize("captured", [False, True],
                         ids=["uncaptured", "captured"])
def test_cached_page_mid_ring_matches_loop(captured):
    """The IOTLB still caches a frame of the ring with other rights, as
    a deferred unmap can leave it: that buffer goes to
    ``_map_fresh_one``, whose map invalidates the entry first.  The pass
    reports the maps it made before it, so the surface series keeps the
    loop's order around the invalidation's own sample."""
    probe = _system("identity-deferred", 1, 2048, 256, batched=True)
    probe.setup_queues()
    page = list(probe.driver._rx_slots[0].values())[100].buf.pa >> PAGE_SHIFT
    systems = [_system("identity-deferred", 1, 2048, 256, batched=batched,
                       captured=captured) for batched in (True, False)]
    for system in systems:
        iotlb, domain_id = system.iommu.iotlb, system.dma_api.domain_id
        iotlb.prefetch(domain_id, page, PteEntry(page, Perm.READ))
        system.setup_queues()
        assert iotlb.peek(domain_id, page) is None
    _assert_same_state(*systems, "after setup_queues")
    for system in systems:
        _traffic(system, 2)
        system.teardown_queues()
    _assert_same_state(*systems, "after teardown_queues")


@pytest.mark.parametrize("captured", [False, True],
                         ids=["uncaptured", "captured"])
def test_failed_map_mid_ring_matches_loop(captured):
    """Without the bounce rung, the first map past the pool cap fails:
    setup stops with the buffers mapped before it posted and reported,
    and nothing of the failed one."""
    systems = [_system("copy", 1, 2048, 256, batched=batched,
                       captured=captured,
                       scheme_kwargs=dict(max_pool_bytes=100 * 4096))
               for batched in (True, False)]
    for system in systems:
        with pytest.raises(PoolExhaustedError):
            system.setup_queues()
    assert systems[0].dma_api.live_mappings == 100
    _assert_same_state(*systems, "after the failed map")


@pytest.mark.parametrize("observed", ["captured", "faulted", "neither"])
def test_observed_setup_maps_each_buffer(observed):
    """A fault plan keeps ring setup on the per-buffer loop, so every
    map consults its fault sites.  A captured copy system, whose ring
    setup records to exposure only, maps none of its ring through
    ``dma_map``, as an unobserved one.  Teardown unmaps every buffer
    through ``dma_unmap`` in all three."""
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
    assert len(maps) == (63 if observed == "faulted" else 0)
    system.teardown_queues()
    assert len(unmaps) == 63


def test_full_capture_outside_the_ring_scope_keeps_the_loop():
    """A captured context whose recorders all record — ring setup called
    outside ``exposure_only`` — keeps the per-buffer loop, so each map
    opens its own ``dma_map`` span."""
    obs = Observability.capture()
    system = System.build(SystemConfig(scheme="copy", cores=1,
                                       rx_ring_size=64, obs=obs))
    system.driver.setup_queue(system.machine.core(0), 0)
    assert obs.spans.tree().children["dma_map"].count == 63
    assert system.dma_api.live_mappings == 63
