"""One workload's passes, run in a fresh process.

``python -m perfbench.child --workload W ...`` runs an untimed host warm
pass (the first config at 1/10 size), then whole passes over the
workload's configs until ``--seconds`` have elapsed and at least
``--min-passes`` are done, and prints one JSON document on stdout.

The reference kernel (:mod:`perfbench.hostclock`) runs before and after
every config, and the config's host times are reported in reference
seconds; ``total_raw_s`` keeps the raw wall seconds.  With
``--traced 1`` the per-layer
:class:`~perfbench.instrument.Tracer` is installed too, and its spans
are written to ``perfbench/out/trace_<workload>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

from perfbench.hostclock import ReferenceKernel, reference_scale
from perfbench.instrument import ROOT_NAME, Patcher, PhaseClock, Tracer
from perfbench.workloads import ConfigSpec, workload_specs
from repro.obs.context import Observability
from repro.workloads.memcached import MemcachedConfig, run_memcached
from repro.workloads.netperf import (RRConfig, StreamConfig, run_tcp_rr,
                                     run_tcp_stream)
from repro.workloads.storage import StorageConfig, run_storage

OUT_DIR = Path(__file__).resolve().parent / "out"

#: RunResult extras that only a captured run produces.
OBS_EXTRAS = ("metrics", "exposure", "requests", "locks")

#: Observability.capture ring size, as ``repro bench`` uses it.
CAPTURE_TRACE_CAPACITY = 256

#: ConfigSpec.runner → (config class, public runner).
RUNNERS = {"stream": (StreamConfig, run_tcp_stream),
           "rr": (RRConfig, run_tcp_rr),
           "storage": (StorageConfig, run_storage),
           "memcached": (MemcachedConfig, run_memcached)}


def stable_row(result) -> dict:
    """A run's simulated outcome as plain JSON data, without the extras
    that only observability adds."""
    row = dataclasses.asdict(result)
    row["extras"] = {k: v for k, v in row["extras"].items()
                     if k not in OBS_EXTRAS}
    row["throughput_gbps"] = result.throughput_gbps
    row["us_per_unit"] = result.us_per_unit
    row["breakdown_us"] = result.breakdown_us_per_unit()
    return json.loads(json.dumps(row, sort_keys=True))


def system_failures(system) -> int:
    """Failed operations a built system recorded: NIC drops, driver
    refill/map/drop failures, and DMA mappings still live after the
    runner tore its queues down."""
    nic, driver = system.nic.stats, system.driver.stats
    drops = sum(v for k, v in vars(nic).items() if k.startswith("rx_drops_"))
    return (drops + driver.rx_refill_failures + driver.tx_map_failures
            + driver.tx_dropped_chunks + system.dma_api.live_mappings)


class Runner:
    """Runs config specs between reference-kernel runs, under the phase
    clock (and the tracer, if any)."""

    def __init__(self, kernel: ReferenceKernel, phases: PhaseClock,
                 tracer: Optional[Tracer]) -> None:
        self.kernel = kernel
        self.phases = phases
        self.tracer = tracer
        #: Every kernel time so far; the last one precedes the next config.
        self.kernel_times = [kernel.time_s()]

    def run(self, spec: ConfigSpec) -> dict:
        config_cls, run = RUNNERS[spec.runner]
        config = config_cls(**spec.params)
        if spec.captured:
            config.obs = Observability.capture(
                trace_capacity=CAPTURE_TRACE_CAPACITY)
        self.phases.reset()
        record = {"label": spec.label, "captured": spec.captured,
                  "expected_units": spec.expected_units}
        if self.tracer is not None:
            self.tracer.config = spec.label
        before = self.kernel_times[-1]
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.frame(ROOT_NAME):
                    result = run(config)
            else:
                result = run(config)
        except Exception:  # a failed config is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            result = None
        end = time.perf_counter()
        self.kernel_times.append(self.kernel.time_s())
        if result is None:
            record.update(error=True, units=0, failed=spec.expected_units,
                          row=None)
            return record
        scale = reference_scale(before, self.kernel_times[-1])
        phases = self.phases
        record.update(
            error=False,
            total_s=(end - start) * scale,
            total_raw_s=end - start,
            setup_s=phases.setup_s * scale,
            measure_s=(end - phases.measure_start - phases.teardown_s)
            * scale,
            units=result.units,
            wall_cycles=result.wall_cycles,
            failed=sum(system_failures(s) for s in phases.systems),
            row=stable_row(result),
        )
        return record


def run_workload(workload: str, seed: int, seconds: float, scale: float,
                 min_passes: int, traced: bool) -> dict:
    """Warm pass, then timed passes; returns the JSON-ready report."""
    specs = workload_specs(workload, seed, scale)
    # Start-up has only grown the heap, so the peak grows by about what
    # the kernel's working set takes.
    rss_before_kernel = _peak_rss_mb()
    kernel = ReferenceKernel()
    kernel_mb = _peak_rss_mb() - rss_before_kernel
    with Patcher() as patcher:
        phases = PhaseClock(time.perf_counter)
        phases.install(patcher)
        tracer = None
        if traced:
            tracer = Tracer(time.perf_counter)
            tracer.install(patcher)
        runner = Runner(kernel, phases, tracer)
        runner.run(specs[0].scaled(0.1))
        if tracer is not None:
            tracer.reset()
        passes = []
        started = time.perf_counter()
        while (len(passes) < min_passes
               or time.perf_counter() - started < seconds):
            passes.append([runner.run(spec) for spec in specs])
    kernel_s = statistics.median(runner.kernel_times)
    report = {
        "workload": workload, "seed": seed, "scale": scale,
        "traced": traced, "passes": passes,
        # The kernel's working set is the harness's, not the simulator's.
        "peak_rss_mb": _peak_rss_mb() - kernel_mb,
        "kernel_ms_median": kernel_s * 1e3,
        # Scales the tracer's raw seconds, which span many configs.
        "ref_scale": reference_scale(kernel_s, kernel_s),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        report["trace"]["spans_file"] = _write_spans(workload, tracer)
    return report


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_spans(workload: str, tracer: Tracer) -> str:
    """Write the tracer's spans; name and config are table indices and
    times are reference microseconds."""
    configs = sorted({span[5] for span in tracer.spans})
    config_index = {label: i for i, label in enumerate(configs)}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{workload}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload,
                   "fields": ["id", "parent", "name", "t0_us", "t1_us",
                              "config"],
                   "names": tracer.names, "layers": tracer.layers,
                   "configs": configs,
                   "spans": [[sid, parent, fid, round(t0 * 1e6, 1),
                              round(t1 * 1e6, 1), config_index[config]]
                             for sid, parent, fid, t0, t1, config
                             in tracer.spans]},
                  fh, separators=(",", ":"))
    return str(path.relative_to(OUT_DIR.parent.parent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = run_workload(args.workload, args.seed, args.seconds, args.scale,
                          args.min_passes, bool(args.traced))
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
