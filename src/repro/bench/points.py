"""Run points and the one fan-out behind bench, scale and diff.

Every number those commands report is one workload run at one point
under capture, and this module is the only place that happens:

* :class:`RunPoint` names one run: a workload, a scheme and the config
  fields the run sets;
* :data:`WORKLOADS` is the one workload table (name → config class and
  runner), and :func:`sized_point` maps the generic sizing knobs
  (``cores``, ``size``, ``units``, ``warmup``) onto each workload's own
  config fields;
* :func:`run_point` runs a point under a capturing
  :class:`~repro.obs.context.Observability`, and :func:`run_observed`
  under the caller's (the CLI's workload subcommands);
* :func:`fan_out` runs independent tasks over worker processes, times
  each inside its worker and merges the results back in task order, so
  everything built from them is identical at any ``--jobs`` count.
"""

from __future__ import annotations

import functools
import multiprocessing
import time
from concurrent import futures
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple, TypeVar)

from repro.obs.context import Observability
from repro.stats.results import RunResult
from repro.workloads.memcached import MemcachedConfig, run_memcached
from repro.workloads.netperf import (
    RRConfig,
    StreamConfig,
    run_tcp_rr,
    run_tcp_stream,
)
from repro.workloads.storage import StorageConfig, run_storage

#: Ring capacity of every captured run.  Spans and metrics aggregate in
#: place; the event ring is only kept small and warm so record extras
#: stay cheap.
TRACE_CAPACITY = 256


class Workload(NamedTuple):
    """How a workload name becomes a run."""

    config: type
    runner: Callable[..., RunResult]
    #: Config fields the name itself fixes (``stream-tx`` transmits).
    fixed: Dict[str, object]
    #: Generic sizing knob → this workload's config field; ``None`` marks
    #: a knob the workload ignores (TCP_RR is one flow on one core).
    knobs: Dict[str, Optional[str]]


_STREAM_KNOBS = {"cores": "cores", "size": "message_size",
                 "units": "units_per_core", "warmup": "warmup_units"}

WORKLOADS: Dict[str, Workload] = {
    "stream": Workload(StreamConfig, run_tcp_stream,
                       {"direction": "rx"}, _STREAM_KNOBS),
    "stream-tx": Workload(StreamConfig, run_tcp_stream,
                          {"direction": "tx"}, _STREAM_KNOBS),
    "rr": Workload(RRConfig, run_tcp_rr, {},
                   {"cores": None, "size": "message_size",
                    "units": "transactions",
                    "warmup": "warmup_transactions"}),
    "memcached": Workload(MemcachedConfig, run_memcached, {},
                          {"cores": "cores", "size": "value_size",
                           "units": "transactions_per_core",
                           "warmup": "warmup_transactions"}),
    "storage": Workload(StorageConfig, run_storage, {},
                        {"cores": "cores", "size": "block_size",
                         "units": "ops_per_core", "warmup": "warmup_ops"}),
}


@dataclass(frozen=True)
class RunPoint:
    """One captured run: a workload, a scheme and the config fields it
    sets (everything else keeps the config class's default)."""

    workload: str
    scheme: str
    params: Dict[str, object] = field(default_factory=dict)


def _workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"error: unknown workload {name!r}; "
                         f"choices: {', '.join(WORKLOADS)}") from None


def sized_point(workload: str, scheme: str, **knobs: int) -> RunPoint:
    """A point set through the generic sizing knobs, mapped onto the
    workload's config fields (a knob it ignores is dropped)."""
    fields = _workload(workload).knobs
    return RunPoint(workload, scheme,
                    {fields[knob]: value for knob, value in knobs.items()
                     if fields[knob] is not None})


def run_observed(point: RunPoint,
                 obs: Optional[Observability]) -> RunResult:
    """Run one point under ``obs`` (``None``: unobserved)."""
    workload = _workload(point.workload)
    config = workload.config(scheme=point.scheme, obs=obs,
                             **workload.fixed, **point.params)
    return workload.runner(config)


def run_point(point: RunPoint) -> Tuple[RunResult, Observability]:
    """Run one point under capture; returns the result and the
    observability that recorded it (spans, requests, locks)."""
    obs = Observability.capture(trace_capacity=TRACE_CAPACITY)
    return run_observed(point, obs), obs


def throughput_entry(sim_cycles: int, wall_seconds: float) -> dict:
    """One ``throughput`` record entry: simulated cycles, the wall
    seconds they took, and their ratio."""
    rate = sim_cycles / wall_seconds if wall_seconds > 0 else 0.0
    return {
        "sim_cycles": sim_cycles,
        "wall_seconds": round(wall_seconds, 3),
        "sim_cycles_per_wall_second": round(rate),
    }


T = TypeVar("T")
R = TypeVar("R")


def _timed(worker: Callable[[T], R], task: T) -> Tuple[R, float]:
    start = time.perf_counter()
    value = worker(task)
    return value, time.perf_counter() - start


def fan_out(worker: Callable[[T], R], tasks: Sequence[T], jobs: int,
            note: Optional[Callable[[T, R, float], None]] = None,
            ) -> List[Tuple[R, float]]:
    """Run ``worker`` on every task; ``(value, wall seconds)`` per task,
    in task order.

    With ``jobs > 1`` and more than one task, tasks run on
    ``min(jobs, len(tasks))`` spawned worker processes, so ``worker``
    must be a top-level function and tasks and values picklable.  Each
    task is timed inside its worker, so wall seconds mean the same thing
    at any job count, and ``note(task, value, seconds)`` sees every task
    in task order as its result arrives.
    """
    if jobs < 1:
        raise SystemExit(f"error: jobs must be positive: {jobs}")
    timed = functools.partial(_timed, worker)

    def merge(results: Iterable[Tuple[R, float]]) -> List[Tuple[R, float]]:
        merged = []
        for task, (value, seconds) in zip(tasks, results):
            if note is not None:
                note(task, value, seconds)
            merged.append((value, seconds))
        return merged

    if jobs == 1 or len(tasks) < 2:
        return merge(map(timed, tasks))
    with futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)),
            mp_context=multiprocessing.get_context("spawn")) as pool:
        return merge(pool.map(timed, tasks))
