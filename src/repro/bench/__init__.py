"""Unified benchmark harness: figure runner, records, ledger, gate.

``python -m repro bench`` drives every figure/table sweep of the paper
through one harness (:mod:`repro.bench.runner`), writes a fingerprinted
machine-readable record plus a markdown report
(:mod:`repro.bench.record`), checks the paper's claims against it
(:mod:`repro.bench.ledger`), and can gate the run against a prior
baseline record (:mod:`repro.bench.regression`).  The resource
accounting smoke checks live in :mod:`repro.bench.invariants`.

Every run behind ``bench``, ``report``, ``scale``, ``fleet`` and
``diff`` is a :class:`~repro.bench.points.RunPoint` executed by
:func:`repro.bench.points.run_point`, and every ``--jobs`` fan-out is
:func:`repro.bench.points.fan_out`.
"""

from repro.bench.runner import FIGURES, FIGURE_SCHEMES, run_bench  # noqa: F401
from repro.bench.scales import FULL_SCALE, QUICK_SCALE, BenchScale  # noqa: F401

__all__ = [
    "FIGURES",
    "FIGURE_SCHEMES",
    "BenchScale",
    "FULL_SCALE",
    "QUICK_SCALE",
    "run_bench",
]
