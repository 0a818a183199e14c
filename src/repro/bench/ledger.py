"""The paper-fidelity ledger: the paper's quantitative claims, checked
against every bench record.

A :class:`Claim` names the paper's value, the series-row cells it reads
(each addressed by ``(figure, scheme, param_*)`` plus one metric), the
expression it computes over them, and the bound that expression must
meet.  :func:`evaluate` is a pure function of a BENCH record:
``repro bench`` prints the fidelity table and exits 1 when a claim is
broken or a cell it reads does not match exactly one row, and the
record's markdown report embeds the same table.

A claim runs at each scale whose records hold its inputs, as the one
sizing table (:mod:`repro.bench.scales`) says: a claim that reads a
message size the quick sweep skips is checked at ``--full`` only.  So
is Fig. 11's copy/strict ratio, marked so by hand because its quick row
runs 8 cores where the paper runs 16.  A claim whose figures a run did
not build (``--only``) is *not run*, never passed.  The experiments the
registry does not run — §6 memory, the design ablations, the
sensitivity sweeps, storage at 1 MB and Table 1 — are checked by
tier-1 tests instead (EXPERIMENTS.md names each).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.bench.scales import SCALES, BenchScale
from repro.dma.registry import FIGURE_SCHEMES

QUICK_AND_FULL = ("quick", "full")
FULL_ONLY = ("full",)

PASS = "pass"
FAIL = "FAIL"
NOT_RUN = "not run"

_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq,
    ">=": operator.ge, ">": operator.gt,
}


@dataclass(frozen=True)
class Cell:
    """One metric of the one series row of ``figure`` whose scheme and
    ``param_*`` columns match."""

    figure: str
    scheme: str
    metric: str
    params: Tuple[Tuple[str, object], ...] = ()

    def label(self) -> str:
        where = ", ".join([self.scheme]
                          + [f"{key}={value}" for key, value in self.params])
        return f"{self.figure}[{where}].{self.metric}"

    def swept_at(self, scale: BenchScale) -> bool:
        """Whether ``scale`` runs this cell's message size, if it reads
        one, for its figure."""
        size = dict(self.params).get("message_size")
        return size is None or size in scale.message_sizes(self.figure)


@dataclass(frozen=True)
class Claim:
    """One paper claim: ``measure(*reads)`` must satisfy every
    ``(op, limit)`` pair of ``bound``."""

    id: str
    paper: str
    reads: Tuple[Cell, ...]
    measure: Callable[..., float]
    bound: Tuple[Tuple[str, float], ...]
    #: The scales it may run at; ``runs_at`` drops those whose sweep
    #: lacks a message size it reads.
    scales: Tuple[str, ...] = QUICK_AND_FULL
    #: A known deviation from the paper's value, when there is one.
    note: str = ""

    @property
    def figures(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(cell.figure for cell in self.reads))

    @property
    def runs_at(self) -> Tuple[str, ...]:
        return tuple(name for name in self.scales
                     if all(cell.swept_at(SCALES[name])
                            for cell in self.reads))


class Verdict(NamedTuple):
    """One claim judged on one record: its status, the measured value
    and, for a claim not run or a failed lookup, why."""

    claim: Claim
    status: str
    value: Optional[float] = None
    detail: str = ""


def _cell(figure: str, scheme: str, metric: str, **params: int) -> Cell:
    return Cell(figure, scheme, metric, tuple(sorted(params.items())))


def _size(size: int) -> str:
    return f"{size // 1024}k" if size >= 1024 else f"{size}b"


def _ratio(a: float, b: float) -> float:
    return a / b


def _value(a: float) -> float:
    return a


def _off_one(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def _share(*values: float) -> float:
    """The sum of all values but the last, as a share of the last."""
    return sum(values[:-1]) / values[-1]


def _over_sum(a: float, *others: float) -> float:
    return a / sum(others)


def _vs_min(a: float, *others: float) -> float:
    return a / min(others)


def _gap_ratio(copy_a: float, strict_a: float, copy_b: float,
               strict_b: float) -> float:
    return (copy_a / strict_a) / (copy_b / strict_b)


_COLLAPSE_NOTE = ("~11× here: the lock model follows the paper's Fig. 8a "
                  "per-packet arithmetic, deeper than its Fig. 6 shows")
_PROTECTED = ("copy", "identity-deferred", "identity-strict")
_FIG09_SIZES = (64, 1024, 16384, 65536)
_FIG06_SIZES = (1024, 4096, 16384, 65536)


def _fig01(scheme: str, cores: int) -> Cell:
    return _cell("fig01", scheme, "throughput_gbps", cores=cores)


def _sized(figure: str, scheme: str, size: int,
           metric: str = "throughput_gbps") -> Cell:
    return _cell(figure, scheme, metric, message_size=size)


def _fig11(scheme: str, metric: str = "transactions_per_sec") -> Cell:
    return _cell("fig11", scheme, metric)


#: Every claim, in the paper's figure order.
CLAIMS: Tuple[Claim, ...] = (
    # Figure 1: 16 KB RX at 1 and 16 cores, with stock Linux.
    Claim("fig01.copy-vs-identity-strict-16c", "≈5×",
          (_fig01("copy", 16), _fig01("identity-strict", 16)),
          _ratio, ((">=", 4.0),), note=_COLLAPSE_NOTE),
    Claim("fig01.copy-vs-linux-strict-16c", "≈9× (38 vs ~4 Gb/s)",
          (_fig01("copy", 16), _fig01("linux-strict", 16)),
          _ratio, ((">=", 4.0),)),
    Claim("fig01.copy-vs-no-iommu-16c", "≈1× (line rate)",
          (_fig01("copy", 16), _fig01("no-iommu", 16)),
          _ratio, ((">=", 0.95),)),
    Claim("fig01.linux-strict-vs-identity-strict-1c", "~5 vs ~6–7 Gb/s",
          (_fig01("linux-strict", 1), _fig01("identity-strict", 1)),
          _ratio, (("<=", 1.0),)),
    Claim("fig01.linux-deferred-vs-identity-deferred-1c",
          "~8–9 vs ~12 Gb/s",
          (_fig01("linux-deferred", 1), _fig01("identity-deferred", 1)),
          _ratio, (("<=", 1.02),)),
    # Figure 3: single-core RX.
    *(Claim(f"fig03.tie-at-64b.{scheme}", "1× (sender-bound)",
            (_sized("fig03", scheme, 64), _sized("fig03", "no-iommu", 64)),
            _off_one, (("<", 0.02),))
      for scheme in FIGURE_SCHEMES),
    Claim("fig03.copy-vs-no-iommu-64k", "0.76×",
          (_sized("fig03", "copy", 65536),
           _sized("fig03", "no-iommu", 65536)),
          _ratio, ((">=", 0.70), ("<=", 0.82))),
    Claim("fig03.copy-vs-identity-deferred-64k", "≈1.1×",
          (_sized("fig03", "copy", 65536),
           _sized("fig03", "identity-deferred", 65536)),
          _ratio, ((">=", 1.03),)),
    Claim("fig03.copy-vs-identity-strict-64k", "≈2×",
          (_sized("fig03", "copy", 65536),
           _sized("fig03", "identity-strict", 65536)),
          _ratio, ((">=", 1.7),)),
    Claim("fig03.copy-cpu-at-64b", "1.1–1.2×",
          (_sized("fig03", "copy", 64, "cpu_utilization"),
           _sized("fig03", "no-iommu", 64, "cpu_utilization")),
          _ratio, (("<=", 1.35),)),
    # Figure 4: single-core TX.
    Claim("fig04.identity-strict-at-64b", "comparable",
          (_sized("fig04", "identity-strict", 64),
           _sized("fig04", "no-iommu", 64)),
          _off_one, (("<", 0.12),)),
    Claim("fig04.copy-at-64b", "comparable",
          (_sized("fig04", "copy", 64), _sized("fig04", "no-iommu", 64)),
          _off_one, (("<", 0.05),)),
    Claim("fig04.copy-worst-64k", "copy worst",
          tuple(_sized("fig04", scheme, 65536)
                for scheme in ("copy", "no-iommu", "identity-deferred",
                               "identity-strict")),
          _vs_min, (("<", 1.0),)),
    Claim("fig04.copy-within-25pct-64k", "0.8–0.9×",
          tuple(_sized("fig04", scheme, 65536)
                for scheme in ("copy", "no-iommu", "identity-deferred",
                               "identity-strict")),
          _vs_min, ((">", 0.75),)),
    Claim("fig04.copy-cpu-64k", "100%",
          (_sized("fig04", "copy", 65536, "cpu_utilization"),),
          _value, ((">", 0.98),)),
    Claim("fig04.no-iommu-cpu-64k", "below 100%",
          (_sized("fig04", "no-iommu", 65536, "cpu_utilization"),),
          _value, (("<", 0.98),)),
    # Figure 5: single-core breakdowns at 64 KB [µs per packet/chunk];
    # 5b's TX rows are fig04's 64 KB runs.
    Claim("fig05.rx-copy-memcpy", "0.11 µs",
          (_sized("fig05", "copy", 65536, "us_memcpy"),),
          _value, (("<=", 0.17),)),
    Claim("fig05.rx-copy-pool-mgmt", "0.02 µs",
          (_sized("fig05", "copy", 65536, "us_copy_mgmt"),),
          _value, (("<=", 0.05),)),
    Claim("fig05.rx-invalidate-vs-memcpy", "5.5×",
          (_sized("fig05", "identity-strict", 65536,
                  "us_invalidate_iotlb"),
           _sized("fig05", "copy", 65536, "us_memcpy")),
          _ratio, ((">=", 4.0),),
          note="the invalidation bucket includes descriptor submit and "
               "completion poll: 0.88 µs against the paper's 0.61 µs"),
    Claim("fig05.rx-strict-page-table", "0.17 µs",
          (_sized("fig05", "identity-strict", 65536,
                  "us_iommu_page_table_mgmt"),),
          _value, ((">=", 0.13), ("<=", 0.21))),
    Claim("fig05.tx-copy-memcpy", "4.65 µs",
          (_sized("fig04", "copy", 65536, "us_memcpy"),),
          _value, ((">=", 3.8), ("<=", 5.5))),
    Claim("fig05.tx-memcpy-vs-strict-iommu", "≈1× (4.65 vs 4.58 µs)",
          (_sized("fig04", "copy", 65536, "us_memcpy"),
           _sized("fig04", "identity-strict", 65536,
                  "us_invalidate_iotlb"),
           _sized("fig04", "identity-strict", 65536,
                  "us_iommu_page_table_mgmt")),
          _over_sum, ((">=", 0.5), ("<=", 2.0))),
    Claim("fig05.tx-copy-pollution", "copy 'other' > identity+",
          (_sized("fig04", "copy", 65536, "us_other"),
           _sized("fig04", "identity-strict", 65536, "us_other")),
          _ratio, ((">", 1.0),)),
    # Figure 6: 16-core RX.
    *(Claim(f"fig06.collapse-{_size(size)}", "≈5×",
            (_sized("fig06", "copy", size),
             _sized("fig06", "identity-strict", size)),
            _ratio, ((">=", 4.0),), note=_COLLAPSE_NOTE)
      for size in _FIG06_SIZES),
    *(Claim(f"fig06.strict-cpu-{_size(size)}", "100%",
            (_sized("fig06", "identity-strict", size, "cpu_utilization"),),
            _value, ((">", 0.95),))
      for size in _FIG06_SIZES),
    *(Claim(f"fig06.copy-line-rate-{_size(size)}", "≈1×",
            (_sized("fig06", "copy", size),
             _sized("fig06", "no-iommu", size)),
            _ratio, ((">=", 0.97),))
      for size in _FIG06_SIZES),
    Claim("fig06.copy-cpu-16k", "≤ 1.6×",
          (_sized("fig06", "copy", 16384, "cpu_utilization"),
           _sized("fig06", "no-iommu", 16384, "cpu_utilization")),
          _ratio, (("<=", 1.7),)),
    # Figure 7: 16-core TX.
    Claim("fig07.strict-gap-64b", "several ×",
          (_sized("fig07", "copy", 64),
           _sized("fig07", "identity-strict", 64)),
          _ratio, ((">=", 2.0),)),
    Claim("fig07.gap-closes", "closes with message size",
          (_sized("fig07", "copy", 65536),
           _sized("fig07", "identity-strict", 65536),
           _sized("fig07", "copy", 64),
           _sized("fig07", "identity-strict", 64)),
          _gap_ratio, (("<", 1.0),)),
    Claim("fig07.no-gap-64k", "1× (line rate)",
          (_sized("fig07", "copy", 65536),
           _sized("fig07", "identity-strict", 65536)),
          _off_one, (("<", 0.05),)),
    Claim("fig07.copy-line-rate-64k", "≈1×",
          (_sized("fig07", "copy", 65536),
           _sized("fig07", "no-iommu", 65536)),
          _ratio, ((">=", 0.97),)),
    # Figure 8: 16-core breakdowns at 64 KB; 8b's TX row is fig07's.
    Claim("fig08.rx-strict-invalidate", "2.7 µs",
          (_sized("fig08", "identity-strict", 65536,
                  "us_invalidate_iotlb"),),
          _value, ((">=", 1.8),)),
    Claim("fig08.rx-strict-spinlock", "≈69 µs",
          (_sized("fig08", "identity-strict", 65536, "us_spinlock"),),
          _value, ((">=", 20.0),),
          note="≈47 µs here"),
    Claim("fig08.rx-spinlock-vs-invalidate", "≈25×",
          (_sized("fig08", "identity-strict", 65536, "us_spinlock"),
           _sized("fig08", "identity-strict", 65536,
                  "us_invalidate_iotlb")),
          _ratio, ((">", 5.0),)),
    Claim("fig08.rx-copy-spinlock", "≈0 µs",
          (_sized("fig08", "copy", 65536, "us_spinlock"),),
          _value, (("<", 0.05),)),
    Claim("fig08.rx-copy-memcpy", "0.11 µs (as on 1 core)",
          (_sized("fig08", "copy", 65536, "us_memcpy"),),
          _value, (("<=", 0.17),)),
    Claim("fig08.tx-spinlock-milder", "12 vs 69 µs",
          (_sized("fig07", "identity-strict", 65536, "us_spinlock"),
           _sized("fig08", "identity-strict", 65536, "us_spinlock")),
          _ratio, (("<", 1.0),)),
    # Figure 9: TCP_RR latency and CPU.
    Claim("fig09.latency-growth-64b-to-64k", "≈4×",
          (_sized("fig09", "no-iommu", 65536, "latency_us"),
           _sized("fig09", "no-iommu", 64, "latency_us")),
          _ratio, ((">=", 2.5), ("<=", 7.0))),
    *(Claim(f"fig09.latency-{_size(size)}.{scheme}", "comparable",
            (_sized("fig09", scheme, size, "latency_us"),
             _sized("fig09", "no-iommu", size, "latency_us")),
            _ratio, (("<", 1.3),))
      for size in _FIG09_SIZES for scheme in _PROTECTED),
    *(Claim(f"fig09.cpu-64k.{scheme}", "above no-iommu",
            (_sized("fig09", scheme, 65536, "cpu_utilization"),
             _sized("fig09", "no-iommu", 65536, "cpu_utilization")),
            _ratio, ((">", 1.0),))
      for scheme in _PROTECTED),
    Claim("fig09.cpu-64b.identity-strict-vs-copy", "identity+ highest",
          (_sized("fig09", "identity-strict", 64, "cpu_utilization"),
           _sized("fig09", "copy", 64, "cpu_utilization")),
          _ratio, ((">=", 1.0),)),
    Claim("fig09.cpu-64b.copy-vs-no-iommu", "above no-iommu",
          (_sized("fig09", "copy", 64, "cpu_utilization"),
           _sized("fig09", "no-iommu", 64, "cpu_utilization")),
          _ratio, ((">", 1.0),)),
    # Figure 10: TCP_RR CPU breakdown at 64 KB.
    Claim("fig10.strict-iommu-share", "almost half",
          tuple(_cell("fig10", "identity-strict", metric)
                for metric in ("us_invalidate_iotlb",
                               "us_iommu_page_table_mgmt", "us_spinlock",
                               "us_per_unit")),
          _share, ((">=", 0.25),)),
    Claim("fig10.copy-copying-share", "≈20%",
          tuple(_cell("fig10", "copy", metric)
                for metric in ("us_memcpy", "us_copy_mgmt", "us_per_unit")),
          _share, (("<=", 0.45),),
          note="≈29% here: the LRO model copies the full 2×64 KB per "
               "transaction"),
    Claim("fig10.copy-copying-vs-rtt", "< 10%",
          tuple(_cell("fig10", "copy", metric)
                for metric in ("us_memcpy", "us_copy_mgmt", "latency_us")),
          _share, (("<", 0.15),),
          note="≈11% here, for the same LRO reason"),
    Claim("fig10.copy-no-invalidations", "0 µs",
          (_cell("fig10", "copy", "us_invalidate_iotlb"),),
          _value, (("==", 0.0),)),
    # Figure 11: memcached.
    Claim("fig11.copy-vs-no-iommu", "≈0.98×",
          (_fig11("copy"), _fig11("no-iommu")), _ratio, ((">", 0.95),)),
    Claim("fig11.identity-deferred-vs-no-iommu", "comparable",
          (_fig11("identity-deferred"), _fig11("no-iommu")),
          _ratio, ((">", 0.9),)),
    Claim("fig11.copy-vs-identity-strict", "6.6×",
          (_fig11("copy"), _fig11("identity-strict")),
          _ratio, ((">=", 5.0),), FULL_ONLY,
          note="≈8.7× here at 16 cores; quick's 8 cores × 40 "
               "transactions read 2.78×"),
    Claim("fig11.strict-cpu", "100%",
          (_fig11("identity-strict", "cpu_utilization"),),
          _value, ((">", 0.95),)),
    # §5.5 storage, small blocks (1 MB blocks are a tier-1 test).
    Claim("storage.copy-vs-strict-4k", "copy ahead at NIC-like rates",
          (_cell("storage", "copy", "transactions_per_sec",
                 block_size=4096),
           _cell("storage", "identity-strict", "transactions_per_sec",
                 block_size=4096)),
          _ratio, ((">", 1.15),)),
)


def _lookup(figures: Dict[str, dict], cell: Cell) -> float:
    rows = [row for row in figures[cell.figure].get("series", ())
            if row.get("scheme") == cell.scheme
            and all(row.get(f"param_{key}") == value
                    for key, value in cell.params)]
    if len(rows) != 1:
        raise LookupError(f"{cell.label()} matches {len(rows)} rows")
    value = rows[0].get(cell.metric)
    if value is None:
        raise LookupError(f"{cell.label()} is missing")
    return value


def _judge(claim: Claim, mode: str, figures: Dict[str, dict]) -> Verdict:
    if mode not in claim.runs_at:
        return Verdict(claim, NOT_RUN, detail=f"{'/'.join(claim.runs_at)} "
                                              f"scale only")
    missing = [name for name in claim.figures if name not in figures]
    if missing:
        return Verdict(claim, NOT_RUN,
                       detail=f"{', '.join(missing)} not in the record")
    try:
        value = claim.measure(*(_lookup(figures, cell)
                                for cell in claim.reads))
    except (LookupError, ZeroDivisionError) as exc:
        return Verdict(claim, FAIL, detail=str(exc))
    holds = all(_OPS[op](value, limit) for op, limit in claim.bound)
    return Verdict(claim, PASS if holds else FAIL, value)


def evaluate(record: Dict) -> List[Verdict]:
    """One verdict per claim, in ledger order, for ``record``'s scale."""
    mode = record.get("fingerprint", {}).get("mode", "")
    figures = record.get("figures", {})
    return [_judge(claim, mode, figures) for claim in CLAIMS]


def broken(verdicts: List[Verdict]) -> List[Verdict]:
    return [verdict for verdict in verdicts if verdict.status == FAIL]


def render_fidelity(verdicts: List[Verdict]) -> List[str]:
    """The fidelity table (markdown) and a one-line summary."""
    lines = ["| claim | paper | measured | bound | verdict | note |",
             "|---|---|---:|---|---|---|"]
    for verdict in verdicts:
        claim = verdict.claim
        measured = "—" if verdict.value is None else f"{verdict.value:.4g}"
        bound = ", ".join(f"{op} {limit:g}" for op, limit in claim.bound)
        status = verdict.status + (f" ({verdict.detail})"
                                   if verdict.detail else "")
        lines.append(f"| `{claim.id}` | {claim.paper} | {measured} "
                     f"| {bound} | {status} | {claim.note} |")
    failed = broken(verdicts)
    counts = {status: sum(v.status == status for v in verdicts)
              for status in (PASS, FAIL, NOT_RUN)}
    summary = (f"{counts[PASS]} claims hold, {counts[FAIL]} broken, "
               f"{counts[NOT_RUN]} not run")
    lines.append("")
    if failed:
        lines.append(f"FAIL: {summary}: "
                     + ", ".join(v.claim.id for v in failed))
    else:
        lines.append(f"PASS: {summary}")
    return lines
