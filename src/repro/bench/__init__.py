"""Unified benchmark harness: figure runner, records, regression gate.

``python -m repro bench`` drives every figure/table sweep of the paper
through one harness (:mod:`repro.bench.runner`), writes a fingerprinted
machine-readable record plus a markdown report
(:mod:`repro.bench.record`), and can gate the run against a prior
baseline record (:mod:`repro.bench.regression`).  The resource
accounting smoke checks live in :mod:`repro.bench.invariants`.

Every run behind ``bench``, ``report``, ``scale``, ``fleet`` and
``diff`` is a :class:`~repro.bench.points.RunPoint` executed by
:func:`repro.bench.points.run_point`, and every ``--jobs`` fan-out is
:func:`repro.bench.points.fan_out`.

The per-figure ``benchmarks/bench_fig*.py`` scripts keep working — their
shared helpers (``stream_sweep``, ``rr_sweep``, …) now live in
:mod:`repro.bench.runner` and ``benchmarks/common.py`` re-exports them.
"""

from repro.bench.runner import (  # noqa: F401
    FIGURES,
    FIGURE_SCHEMES,
    BenchScale,
    FULL_SCALE,
    QUICK_SCALE,
    relative,
    rr_sweep,
    run_bench,
    stream_sweep,
)

__all__ = [
    "FIGURES",
    "FIGURE_SCHEMES",
    "BenchScale",
    "FULL_SCALE",
    "QUICK_SCALE",
    "relative",
    "rr_sweep",
    "run_bench",
    "stream_sweep",
]
