"""The scalability observatory: serial-fraction models and attribution.

The paper's headline multicore result — strict IOMMU protection
collapsing while copy scales — is a *serial fraction* story: every
unmap funnels through the invalidation-queue lock, so strict's speedup
curve flattens exactly as Amdahl's law predicts for a large serial
share.  This module turns measured sweep data into that statement:

* **Speedup curves** from measured throughput across core counts.
* **Model fits** — Amdahl's law ``S(N) = 1 / (s + (1-s)/N)`` for the
  serial fraction ``s``, and the Universal Scalability Law
  ``S(N) = N / (1 + σ(N-1) + κN(N-1))`` whose coherence term ``κ``
  distinguishes "saturates" from "gets *worse* with more cores".
* **Attribution** — a per-lock contention matrix (which lock, which
  cores, waiter→holder hand-offs; from :mod:`repro.obs.locks`
  snapshots) and a queueing decomposition of the invalidation queue
  (arrival rate, service cycles, queue delay, depth) saying *which*
  serial resource owns the fitted fraction.

Everything here is **post-hoc derivation over recorded data** — no
function in this module runs during simulation, so the zero-simulated-
cycle-overhead contract of :mod:`repro.obs` is untouched.  Inputs are
JSON-friendly point dicts (see :mod:`repro.bench.scale`, which builds
them) so the same code analyzes a live sweep or a ``scale.json`` from
disk.

Both fits have closed forms after linearization, so no optimizer (and
no third-party dependency) is needed:

* Amdahl: with ``y = 1/S - 1/N`` and ``x = 1 - 1/N``, the model is
  ``y = s·x`` and least squares gives ``s = Σxy / Σx²``.
* USL: with ``y = N/S - 1`` over the basis ``(N-1)`` and ``N(N-1)``,
  the model is linear in ``(σ, κ)`` and the 2×2 normal equations solve
  it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hw.cpu import CAT_INVALIDATE, CAT_SPINLOCK
from repro.obs.locks import LockContentionStats, load_snapshot, top_edges

__all__ = [
    "ScalingFit",
    "SchemeScaling",
    "amdahl_fit",
    "usl_fit",
    "amdahl_speedup",
    "usl_speedup",
    "speedup_curve",
    "serialized_shares",
    "analyze_scheme",
    "contention_matrix",
    "queueing_rows",
    "render_speedup_table",
    "render_fit_table",
    "render_contention_matrix",
    "render_queueing_table",
]


# ----------------------------------------------------------------------
# Per-row serialized-share columns (every BENCH series row).
# ----------------------------------------------------------------------
def serialized_shares(breakdown_cycles: Dict[str, int],
                      busy_cycles: int) -> Tuple[float, float]:
    """``(lock_wait_share, scaling_serial_fraction)`` of one run.

    * ``lock_wait_share`` — fraction of busy cycles spent spinning on
      locks (the ``spinlock`` category).
    * ``scaling_serial_fraction`` — fraction of busy cycles spent on
      serial resources: lock spinning plus the serialized invalidation
      hardware (``invalidate iotlb``).  This is the within-run
      Karp–Flatt-style estimator: it is defined at any core count
      (including 1, where it measures the serial-resource *cost* that
      contention will amplify) and it is exactly the share Amdahl's
      ``s`` converges to as the sweep's contention grows.

    Both are pure functions of the measured breakdown — no observability
    capture is needed, so every BENCH row gets them.
    """
    if busy_cycles <= 0:
        return 0.0, 0.0
    lock_wait = breakdown_cycles.get(CAT_SPINLOCK, 0)
    serial = lock_wait + breakdown_cycles.get(CAT_INVALIDATE, 0)
    return lock_wait / busy_cycles, serial / busy_cycles


# ----------------------------------------------------------------------
# Model fits.
# ----------------------------------------------------------------------
@dataclass
class ScalingFit:
    """Fitted scaling models of one scheme's sweep."""

    #: Amdahl serial fraction ``s`` ∈ [0, 1]; None if the sweep had no
    #: multi-core point to constrain it.
    serial_fraction: Optional[float] = None
    #: USL contention coefficient σ ≥ 0 (queueing on shared resources).
    usl_sigma: Optional[float] = None
    #: USL coherence coefficient κ ≥ 0 (pairwise coordination; κ > 0
    #: means throughput eventually *drops* as cores are added).
    usl_kappa: Optional[float] = None
    #: Core count maximizing the fitted USL curve (None when κ = 0:
    #: the model predicts monotone — if saturating — speedup).
    usl_peak_cores: Optional[float] = None

    def to_dict(self) -> Dict[str, Optional[float]]:
        return {
            "serial_fraction": self.serial_fraction,
            "usl_sigma": self.usl_sigma,
            "usl_kappa": self.usl_kappa,
            "usl_peak_cores": self.usl_peak_cores,
        }


def amdahl_speedup(s: float, n: float) -> float:
    """Amdahl's law: predicted speedup at ``n`` cores for serial ``s``."""
    return 1.0 / (s + (1.0 - s) / n)


def usl_speedup(sigma: float, kappa: float, n: float) -> float:
    """USL: predicted speedup at ``n`` cores."""
    return n / (1.0 + sigma * (n - 1.0) + kappa * n * (n - 1.0))


def amdahl_fit(speedups: Sequence[Tuple[int, float]]) -> Optional[float]:
    """Least-squares Amdahl serial fraction from ``(cores, speedup)``.

    Closed form on the linearized model (see module docstring), clamped
    to [0, 1].  Returns None when no point constrains ``s`` (only
    single-core points, or degenerate speedups).
    """
    sxx = 0.0
    sxy = 0.0
    for n, s_meas in speedups:
        if n <= 1 or s_meas <= 0.0:
            continue
        x = 1.0 - 1.0 / n
        y = 1.0 / s_meas - 1.0 / n
        sxx += x * x
        sxy += x * y
    if sxx == 0.0:
        return None
    return min(1.0, max(0.0, sxy / sxx))


def usl_fit(speedups: Sequence[Tuple[int, float]]
            ) -> Optional[Tuple[float, float]]:
    """Least-squares USL ``(σ, κ)`` from ``(cores, speedup)`` points.

    Solves the 2×2 normal equations of the linearized model; both
    coefficients are clamped to ≥ 0 (negative values have no physical
    reading here).  Returns None with fewer than two distinct
    multi-core points (the two coefficients would be unidentifiable).
    """
    rows: List[Tuple[float, float, float]] = []   # (a, b, y)
    for n, s_meas in speedups:
        if n <= 1 or s_meas <= 0.0:
            continue
        rows.append((n - 1.0, n * (n - 1.0), n / s_meas - 1.0))
    if len({a for a, _, _ in rows}) < 2:
        return None
    saa = sum(a * a for a, _, _ in rows)
    sab = sum(a * b for a, b, _ in rows)
    sbb = sum(b * b for _, b, _ in rows)
    say = sum(a * y for a, _, y in rows)
    sby = sum(b * y for _, b, y in rows)
    det = saa * sbb - sab * sab
    if abs(det) < 1e-12:
        return None
    sigma = (say * sbb - sby * sab) / det
    kappa = (sby * saa - say * sab) / det
    return max(0.0, sigma), max(0.0, kappa)


def _usl_peak(sigma: float, kappa: float) -> Optional[float]:
    """Core count where the fitted USL curve peaks (κ > 0 only)."""
    if kappa <= 0.0:
        return None
    return ((1.0 - sigma) / kappa) ** 0.5


def fit_models(speedups: Sequence[Tuple[int, float]]) -> ScalingFit:
    """Fit both models; degenerate sweeps yield a fit full of Nones."""
    fit = ScalingFit(serial_fraction=amdahl_fit(speedups))
    usl = usl_fit(speedups)
    if usl is not None:
        fit.usl_sigma, fit.usl_kappa = usl
        fit.usl_peak_cores = _usl_peak(fit.usl_sigma, fit.usl_kappa)
    return fit


# ----------------------------------------------------------------------
# Sweep analysis over point dicts.
# ----------------------------------------------------------------------
def speedup_curve(points: Sequence[Dict]) -> List[Tuple[int, float]]:
    """``(cores, speedup)`` normalized to the sweep's smallest count.

    Speedup is aggregate-throughput ratio.  When the baseline point has
    more than one core the ratio is rescaled by the baseline count —
    i.e. scaling below the measured range is assumed perfect, which
    keeps the Amdahl/USL linearizations (anchored at N=1) applicable.
    """
    ordered = sorted(points, key=lambda p: int(p["cores"]))
    if not ordered:
        return []
    base = ordered[0]
    base_n = int(base["cores"])
    base_tput = float(base.get("throughput_gbps") or 0.0)
    curve: List[Tuple[int, float]] = []
    for point in ordered:
        n = int(point["cores"])
        tput = float(point.get("throughput_gbps") or 0.0)
        speedup = base_n * tput / base_tput if base_tput > 0.0 else 0.0
        curve.append((n, speedup))
    return curve


@dataclass
class SchemeScaling:
    """Full analysis of one scheme's core sweep."""

    scheme: str
    speedups: List[Tuple[int, float]] = field(default_factory=list)
    fit: ScalingFit = field(default_factory=ScalingFit)
    #: Serialized-share columns at the largest core count.
    lock_wait_share: float = 0.0
    serial_fraction_measured: float = 0.0
    #: Lock owning the most wait cycles at the largest core count
    #: (None when the sweep recorded no contention).
    top_lock: Optional[str] = None
    top_lock_wait_cycles: int = 0
    top_lock_wait_share: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "speedups": [[n, round(s, 4)] for n, s in self.speedups],
            "fit": self.fit.to_dict(),
            "lock_wait_share": round(self.lock_wait_share, 6),
            "serial_fraction_measured":
                round(self.serial_fraction_measured, 6),
            "top_lock": self.top_lock,
            "top_lock_wait_cycles": self.top_lock_wait_cycles,
            "top_lock_wait_share": round(self.top_lock_wait_share, 6),
        }


def _point_locks(point: Dict) -> Dict[str, LockContentionStats]:
    return load_snapshot(point.get("locks") or {})


def analyze_scheme(scheme: str, points: Sequence[Dict]) -> SchemeScaling:
    """Speedups, model fits, and lock attribution for one scheme."""
    analysis = SchemeScaling(scheme=scheme)
    analysis.speedups = speedup_curve(points)
    analysis.fit = fit_models(analysis.speedups)
    ordered = sorted(points, key=lambda p: int(p["cores"]))
    if not ordered:
        return analysis
    widest = ordered[-1]
    analysis.lock_wait_share, analysis.serial_fraction_measured = \
        serialized_shares(widest.get("breakdown_cycles") or {},
                          int(widest.get("busy_cycles") or 0))
    ranked = sorted(_point_locks(widest).values(),
                    key=lambda s: (-s.total_wait_cycles, s.name))
    if ranked and ranked[0].total_wait_cycles > 0:
        top = ranked[0]
        total = sum(s.total_wait_cycles for s in ranked)
        analysis.top_lock = top.name
        analysis.top_lock_wait_cycles = top.total_wait_cycles
        analysis.top_lock_wait_share = top.total_wait_cycles / total
    return analysis


# ----------------------------------------------------------------------
# Contention matrix + queueing decomposition.
# ----------------------------------------------------------------------
def contention_matrix(points: Sequence[Dict]
                      ) -> List[Dict[str, object]]:
    """Per-lock rows for one scheme's sweep, ranked by wait burden.

    Each row carries the lock's wait cycles at every swept core count,
    plus — at the largest count — the waiter distribution, the busiest
    waiter→holder hand-off edges, and the holder-side (hold-cycle)
    breakdown.  This is the "which lock owns the serial fraction, and
    between which cores" table of the scale report.
    """
    ordered = sorted(points, key=lambda p: int(p["cores"]))
    if not ordered:
        return []
    per_point = [(int(p["cores"]), _point_locks(p)) for p in ordered]
    names = sorted({name for _, locks in per_point for name in locks})
    widest_n, widest = per_point[-1]
    rows: List[Dict[str, object]] = []
    for name in names:
        wait_by_cores = {n: (locks[name].total_wait_cycles
                             if name in locks else 0)
                         for n, locks in per_point}
        stats = widest.get(name)
        row: Dict[str, object] = {
            "lock": name,
            "wait_cycles_by_cores": wait_by_cores,
            "widest_cores": widest_n,
        }
        if stats is not None:
            row.update({
                "acquisitions": stats.acquisitions,
                "contended": stats.contended,
                "contention_ratio": round(stats.contention_ratio, 4),
                "mean_wait_cycles": round(stats.mean_wait_cycles, 1),
                "max_wait_cycles": stats.max_wait_cycles,
                "waiting_cores": len(stats.wait_by_core),
                "wait_by_core": {str(cid): c for cid, c
                                 in sorted(stats.wait_by_core.items())},
                "hold_by_core": {str(cid): c for cid, c
                                 in sorted(stats.hold_by_core.items())},
                "top_edges": [
                    {"waiter": w, "holder": h, "count": c}
                    for w, h, c in top_edges(stats)],
            })
        rows.append(row)
    rows.sort(key=lambda r: (-max(r["wait_cycles_by_cores"].values(),
                                  default=0), r["lock"]))
    return rows


def queueing_rows(points: Sequence[Dict]) -> List[Dict[str, object]]:
    """Invalidation-queue decomposition per swept core count.

    Reads the ``invalidation`` section the sweep recorded for each
    point: arrivals (submissions), mean service cycles, mean hardware
    queue delay, and the queue-depth series summary.  Rows for points
    without invalidation traffic (e.g. no-iommu) carry zeros.
    """
    rows: List[Dict[str, object]] = []
    for point in sorted(points, key=lambda p: int(p["cores"])):
        inv = point.get("invalidation") or {}
        rows.append({
            "cores": int(point["cores"]),
            "submissions": int(inv.get("submissions") or 0),
            "arrival_rate_per_us": float(
                inv.get("arrival_rate_per_us") or 0.0),
            "mean_service_cycles": float(
                inv.get("mean_service_cycles") or 0.0),
            "mean_queue_delay_cycles": float(
                inv.get("mean_queue_delay_cycles") or 0.0),
            "queue_depth_mean": float(inv.get("queue_depth_mean") or 0.0),
            "queue_depth_max": int(inv.get("queue_depth_max") or 0),
        })
    return rows


# ----------------------------------------------------------------------
# Markdown renderers (the scale report assembles these).
# ----------------------------------------------------------------------
def _fmt(value: Optional[float], digits: int = 3) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def render_speedup_table(analyses: Sequence[SchemeScaling]) -> List[str]:
    """One row per scheme, one column per swept core count."""
    if not analyses:
        return ["(no sweep data)"]
    cores = sorted({n for a in analyses for n, _ in a.speedups})
    header = "| scheme | " + " | ".join(f"S({n})" for n in cores) + " |"
    rule = "|---|" + "---:|" * len(cores)
    lines = [header, rule]
    for analysis in analyses:
        by_n = dict(analysis.speedups)
        cells = " | ".join(
            f"{by_n[n]:.2f}" if n in by_n else "-" for n in cores)
        lines.append(f"| {analysis.scheme} | {cells} |")
    return lines


def render_fit_table(analyses: Sequence[SchemeScaling]) -> List[str]:
    """Serial fractions and USL coefficients, worst scheme first."""
    if not analyses:
        return ["(no sweep data)"]
    ranked = sorted(analyses,
                    key=lambda a: -(a.fit.serial_fraction or 0.0))
    lines = [
        "| scheme | serial fraction (Amdahl s) | USL σ | USL κ "
        "| USL peak cores | lock-wait share | top lock |",
        "|---|---:|---:|---:|---:|---:|---|",
    ]
    for a in ranked:
        peak = ("-" if a.fit.usl_peak_cores is None
                else f"{a.fit.usl_peak_cores:.0f}")
        lines.append(
            f"| {a.scheme} | {_fmt(a.fit.serial_fraction)} "
            f"| {_fmt(a.fit.usl_sigma)} | {_fmt(a.fit.usl_kappa, 5)} "
            f"| {peak} | {a.lock_wait_share:.3f} "
            f"| {a.top_lock or '-'} |")
    return lines


def render_contention_matrix(rows: Sequence[Dict[str, object]],
                             limit: int = 5) -> List[str]:
    """Markdown for the top contended locks of one scheme's sweep."""
    rows = [r for r in rows
            if max(r["wait_cycles_by_cores"].values(), default=0) > 0]
    if not rows:
        return ["(no lock contention recorded)"]
    cores = sorted(rows[0]["wait_cycles_by_cores"])
    header = ("| lock | " + " | ".join(f"wait@{n}" for n in cores)
              + " | contended/acq | mean wait | waiters | top hand-offs |")
    rule = "|---|" + "---:|" * len(cores) + "---:|---:|---:|---|"
    lines = [header, rule]
    for row in rows[:limit]:
        waits = " | ".join(
            f"{row['wait_cycles_by_cores'].get(n, 0):,}" for n in cores)
        edges = ", ".join(
            f"c{e['waiter']}←c{e['holder']}×{e['count']}"
            for e in row.get("top_edges", [])) or "-"
        ratio = (f"{row.get('contended', 0)}/{row.get('acquisitions', 0)}"
                 if row.get("acquisitions") else "-")
        lines.append(
            f"| {row['lock']} | {waits} | {ratio} "
            f"| {row.get('mean_wait_cycles', 0.0):,} "
            f"| {row.get('waiting_cores', 0)} | {edges} |")
    dropped = len(rows) - min(len(rows), limit)
    if dropped:
        lines.append(f"| … {dropped} more lock(s) elided … "
                     + "| " * (len(cores) + 4) + "|")
    return lines


def render_queueing_table(rows: Sequence[Dict[str, object]]) -> List[str]:
    """Markdown for the invalidation-queue decomposition."""
    if not rows or all(r["submissions"] == 0 for r in rows):
        return ["(no invalidation traffic recorded)"]
    lines = [
        "| cores | submissions | arrivals/µs | service [cyc] "
        "| hw queue delay [cyc] | depth mean | depth max |",
        "|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for row in rows:
        lines.append(
            f"| {row['cores']} | {row['submissions']:,} "
            f"| {row['arrival_rate_per_us']:.3f} "
            f"| {row['mean_service_cycles']:.0f} "
            f"| {row['mean_queue_delay_cycles']:.0f} "
            f"| {row['queue_depth_mean']:.2f} "
            f"| {row['queue_depth_max']} |")
    return lines
