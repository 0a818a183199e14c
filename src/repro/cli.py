"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro schemes
    python -m repro audit
    python -m repro stream --scheme copy --direction rx --size 65536
    python -m repro stream --scheme identity+ --cores 16 --size 16384
    python -m repro rr --scheme copy --size 64
    python -m repro memcached --cores 8
    python -m repro storage --scheme copy --block-size 262144
    python -m repro trace --workload stream --cores 16 \\
        --scheme identity+ --requests --tail p99 --perfetto trace.json
    python -m repro report --out REPORT.md
    python -m repro diff --workload stream --schemes strict,copy
    python -m repro diff benchmarks/results/BENCH_quick.json

Every subcommand prints the same metrics the corresponding paper
table/figure reports.  ``python -m repro bench`` runs the full figure
registry, writes a machine-readable ``BENCH_*.json`` record and checks
the paper's claims against it (:mod:`repro.bench.ledger`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Sequence

from repro.attacks.audit import audit_all, render_audit_exposure, \
    render_table1
from repro.dma.registry import ALL_SCHEMES, PAPER_ALIASES, scheme_properties
from repro.errors import (
    AllocationError,
    ConfigurationError,
    DmaApiError,
    IommuFault,
    IovaExhaustedError,
    KallocError,
    MemoryAccessError,
    PoolExhaustedError,
    ReproError,
    SecurityViolation,
    SimulationError,
)
from repro.obs.context import Observability
from repro.obs.requests import parse_percentile, tail_report
from repro.stats.results import RunResult
from repro.stats.timeline import (
    render_observability_report,
    render_request_summary,
    render_request_timeline,
    render_tail_report,
)
from repro.workloads.memcached import MemcachedConfig, run_memcached
from repro.workloads.netperf import (
    RRConfig,
    StreamConfig,
    run_tcp_rr,
    run_tcp_stream,
)
from repro.workloads.storage import StorageConfig, run_storage


#: ReproError subclasses mapped to distinct exit codes, most specific
#: first (the first isinstance match wins).  Scripts and CI can branch
#: on the failure kind without parsing stderr; 1 is the generic fallback.
_EXIT_CODES: Sequence[tuple[type, int]] = (
    (ConfigurationError, 2),
    (IovaExhaustedError, 3),
    (PoolExhaustedError, 4),
    (KallocError, 5),
    (AllocationError, 6),
    (MemoryAccessError, 7),
    (IommuFault, 8),
    (DmaApiError, 9),
    (SecurityViolation, 10),
    (SimulationError, 12),
    (ReproError, 1),
)


def exit_code_for(exc: ReproError) -> int:
    for kind, code in _EXIT_CODES:
        if isinstance(exc, kind):
            return code
    return 1


def _print_result(result: RunResult, *, show_latency: bool = False,
                  show_tps: bool = False) -> None:
    print(f"scheme          : {result.scheme}")
    print(f"workload        : {result.workload} {result.params}")
    print(f"throughput      : {result.throughput_gbps:.2f} Gb/s")
    if show_tps and result.transactions_per_sec is not None:
        print(f"transactions/s  : {result.transactions_per_sec:,.0f}")
    if show_latency and result.latency_us is not None:
        print(f"mean latency    : {result.latency_us:.1f} us")
    print(f"cpu utilization : {100 * result.cpu_utilization:.1f}%")
    print(f"per-unit cpu    : {result.us_per_unit:.3f} us over "
          f"{result.units} units")
    print("breakdown (us/unit):")
    for category, us in result.breakdown_us_per_unit().items():
        if us > 0:
            print(f"  {category:<24} {us:9.3f}")
    if "pool" in result.extras:
        pool = result.extras["pool"]
        print(f"shadow pool     : {pool['bytes_allocated'] / (1 << 20):.1f} "
              f"MiB allocated, peak in-flight {pool['peak_in_flight']}")
    if result.extras.get("sync_invalidations"):
        print(f"invalidations   : {result.extras['sync_invalidations']}")


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer: {value}")
    return n


def _scheme(value: str) -> str:
    resolved = PAPER_ALIASES.get(value, value)
    if resolved not in ALL_SCHEMES:
        raise argparse.ArgumentTypeError(
            f"unknown scheme {value!r}; choices: "
            f"{', '.join(ALL_SCHEMES)} (aliases: identity+, identity-)")
    return resolved


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'True IOMMU Protection from DMA "
                    "Attacks' (ASPLOS'16)")
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared tracing/output options for every workload subcommand.
    tracing = argparse.ArgumentParser(add_help=False)
    tracing.add_argument("--trace", metavar="PATH", default=None,
                         help="enable tracing/metrics; write the event "
                              "trace as JSONL to PATH")
    tracing.add_argument("--trace-limit", type=_positive_int,
                         default=1 << 16,
                         help="ring-buffer capacity in events "
                              "(oldest evicted first; default 65536)")
    tracing.add_argument("--json", metavar="PATH", default=None,
                         help="write the run as a bench-record JSON "
                              "(same row schema as BENCH_*.json) to "
                              "PATH, or '-' for stdout")
    tracing.add_argument("--perfetto", metavar="PATH", default=None,
                         help="write a Chrome trace_event JSON of the "
                              "run to PATH (load in ui.perfetto.dev or "
                              "chrome://tracing)")

    sub.add_parser("schemes", help="list protection schemes and properties")

    audit = sub.add_parser("audit",
                           help="run the attack scenarios; print Table 1")
    audit.add_argument("--scheme", type=_scheme, default=None,
                       help="audit a single scheme instead of all")
    audit.add_argument("--exposure", action="store_true",
                       help="also measure and print the per-scheme "
                            "exposure report (stale windows, granularity "
                            "excess, faults)")

    stream = sub.add_parser("stream", parents=[tracing],
                            help="netperf TCP_STREAM (Figs 3/4/6/7)")
    stream.add_argument("--scheme", type=_scheme, default="copy")
    stream.add_argument("--direction", choices=("rx", "tx"), default="rx")
    stream.add_argument("--size", type=int, default=16384,
                        help="message size in bytes")
    stream.add_argument("--cores", type=int, default=1)
    stream.add_argument("--units", type=int, default=1000,
                        help="segments (rx) / messages (tx) per core")

    rr = sub.add_parser("rr", parents=[tracing],
                        help="netperf TCP_RR latency (Fig 9)")
    rr.add_argument("--scheme", type=_scheme, default="copy")
    rr.add_argument("--size", type=int, default=64)
    rr.add_argument("--transactions", type=int, default=300)

    mc = sub.add_parser("memcached", parents=[tracing],
                        help="memcached + memslap (Fig 11)")
    mc.add_argument("--scheme", type=_scheme, default="copy")
    mc.add_argument("--cores", type=int, default=16)
    mc.add_argument("--transactions", type=int, default=400,
                    help="transactions per core")

    st = sub.add_parser("storage", parents=[tracing],
                        help="SSD-style block I/O (§5.5)")
    st.add_argument("--scheme", type=_scheme, default="copy")
    st.add_argument("--block-size", type=int, default=4096)
    st.add_argument("--cores", type=int, default=1)
    st.add_argument("--ops", type=int, default=400, help="ops per core")

    trace = sub.add_parser(
        "trace", parents=[tracing],
        help="request-scoped causal tracing: per-request timelines, "
             "latency percentiles, tail attribution, Perfetto export")
    trace.add_argument("--workload",
                       choices=("stream", "rr", "memcached", "storage"),
                       default="stream")
    trace.add_argument("--scheme", type=_scheme, default="copy")
    trace.add_argument("--direction", choices=("rx", "tx"), default="rx",
                       help="stream direction (stream workload only)")
    trace.add_argument("--size", type=int, default=16384,
                       help="message size (stream/rr) or block size "
                            "(storage) in bytes")
    trace.add_argument("--cores", type=int, default=1)
    trace.add_argument("--units", type=int, default=400,
                       help="units/transactions/ops per core")
    trace.add_argument("--requests", action="store_true",
                       help="also print the causal timeline of the "
                            "slowest retained requests")
    trace.add_argument("--tail", type=parse_percentile, default=99.0,
                       metavar="PCT",
                       help="tail percentile for the critical-path "
                            "report, e.g. p99, p99.9, 95 (default p99)")

    chaos = sub.add_parser(
        "chaos",
        help="deterministic fault-injection soak: run schemes under a "
             "fault mix, audit for leaks, print a degradation report")
    chaos.add_argument("--seed", type=int, action="append", default=None,
                       metavar="N",
                       help="fault-plan seed (repeatable; default 1). "
                            "Same seed + same plan => identical trace")
    chaos.add_argument("--mix", default="mixed",
                       choices=("none", "resource", "invalidation",
                                "device", "mixed", "all"),
                       help="named fault mix (default mixed); 'all' runs "
                            "every mix, 'none' only the baselines")
    chaos.add_argument("--plan", metavar="SPEC", default=None,
                       help="explicit plan instead of --mix, e.g. "
                            "'pool.grow:rate=0.05,inv.stall:at=3|7'")
    chaos.add_argument("--schemes", metavar="LIST", default=None,
                       help="comma-separated schemes (default: all)")
    chaos.add_argument("--cores", type=_positive_int, default=1)
    chaos.add_argument("--units", type=_positive_int, default=120,
                       help="traffic units (RX frame + TX chunk each) "
                            "per run (default 120)")
    chaos.add_argument("--report", metavar="PATH", default=None,
                       help="also write the degradation report to PATH")
    chaos.add_argument("--json", metavar="PATH", default=None,
                       help="write machine-readable soak rows to PATH, "
                            "or '-' for stdout")

    scale_p = sub.add_parser(
        "scale",
        help="scalability observatory: deterministic core-count sweeps "
             "with serial-fraction fits and lock-contention attribution")
    scale_p.add_argument("--workload",
                         choices=("stream", "stream-tx", "storage",
                                  "memcached"),
                         default="stream")
    scale_p.add_argument("--schemes", metavar="LIST",
                         default="identity-strict,copy",
                         help="comma-separated schemes to sweep "
                              "(aliases like strict/copy allowed; "
                              "default identity-strict,copy)")
    scale_p.add_argument("--cores", metavar="LIST",
                         default="1,2,4,8,16,32,64",
                         help="comma-separated core counts "
                              "(default 1,2,4,8,16,32,64)")
    sizing = scale_p.add_mutually_exclusive_group()
    sizing.add_argument("--quick", action="store_true",
                        help="smoke sizing (default)")
    sizing.add_argument("--full", action="store_true",
                        help="report sizing: stable curves to 64 cores")
    scale_p.add_argument("--jobs", type=_positive_int, default=1,
                         metavar="N",
                         help="run sweep points across N processes; the "
                              "record is byte-stable regardless of N "
                              "(default 1)")
    scale_p.add_argument("--out", metavar="DIR", default=None,
                         help="output directory for scale.json/scale.md "
                              "(default benchmarks/results)")

    fleet_p = sub.add_parser(
        "fleet",
        help="fleet capacity observatory: max sustained users per "
             "scheme at an SLO objective, with breach forensics")
    fleet_p.add_argument("--schemes", metavar="LIST",
                         default="identity-strict,copy",
                         help="comma-separated schemes to search "
                              "(aliases like strict/copy allowed; "
                              "default identity-strict,copy)")
    fleet_sizing = fleet_p.add_mutually_exclusive_group()
    fleet_sizing.add_argument("--quick", action="store_true",
                              help="smoke sizing (default)")
    fleet_sizing.add_argument("--full", action="store_true",
                              help="report sizing: longer diurnal "
                                   "trace, tighter bisection")
    fleet_p.add_argument("--jobs", type=_positive_int, default=1,
                         metavar="N",
                         help="search schemes across N processes; the "
                              "record is byte-stable regardless of N "
                              "(default 1)")
    fleet_p.add_argument("--out", metavar="DIR", default=None,
                         help="output directory for fleet.json/fleet.md/"
                              "fleet_windows.jsonl "
                              "(default benchmarks/results)")

    diff_p = sub.add_parser(
        "diff",
        help="differential root-cause report: A/B attribution between "
             "runs, schemes, and the checked-in baseline")
    diff_p.add_argument("paths", nargs="*", metavar="RECORD",
                        help="two records: diff A vs B; one record: "
                             "diff the checked-in baseline vs it; none: "
                             "run a live scheme pair (--workload)")
    diff_p.add_argument("--workload",
                        choices=("stream", "stream-tx", "rr",
                                 "memcached", "storage"),
                        default=None,
                        help="live-pair workload (omit when diffing "
                             "record files)")
    diff_p.add_argument("--schemes", metavar="A,B",
                        default="identity-strict,copy",
                        help="the two schemes a live pair compares "
                             "(aliases like strict/copy allowed; "
                             "default identity-strict,copy)")
    diff_sizing = diff_p.add_mutually_exclusive_group()
    diff_sizing.add_argument("--quick", action="store_true",
                             help="live-pair smoke sizing (default)")
    diff_sizing.add_argument("--full", action="store_true",
                             help="live-pair report sizing")
    diff_p.add_argument("--cores", type=_positive_int, default=None,
                        help="override live-pair core count")
    diff_p.add_argument("--size", type=_positive_int, default=None,
                        help="override live-pair message/block size")
    diff_p.add_argument("--units", type=_positive_int, default=None,
                        help="override live-pair units per core")
    diff_p.add_argument("--tail", type=parse_percentile, default=99.0,
                        metavar="PCT",
                        help="tail percentile for the quantile-shift "
                             "attribution (default p99)")
    diff_p.add_argument("--jobs", type=_positive_int, default=1,
                        metavar="N",
                        help="run the live pair across N processes; "
                             "the report is byte-stable regardless of N "
                             "(default 1)")
    diff_p.add_argument("--out", metavar="DIR", default=None,
                        help="output directory for diff.md/diff.json "
                             "(default benchmarks/results)")
    diff_p.add_argument("--quiet", action="store_true",
                        help="write the artifacts without printing the "
                             "report")

    report = sub.add_parser(
        "report", help="one-shot consolidated report: quick bench + "
                       "markdown summary with latency tails")
    report.add_argument("--out", metavar="PATH", default=None,
                        help="write the markdown report to PATH "
                             "(default benchmarks/results/REPORT.md)")
    report.add_argument("--only", action="append", metavar="FIG",
                        help="limit the bench sweep to this figure "
                             "(repeatable)")
    report.add_argument("--tail", type=parse_percentile, default=99.0,
                        metavar="PCT",
                        help="tail percentile for the attribution "
                             "section (default p99)")
    report.add_argument("--jobs", type=_positive_int, default=1,
                        metavar="N",
                        help="build figures across N processes "
                             "(default 1)")

    bench = sub.add_parser(
        "bench", help="unified figure runner: BENCH_*.json + report + "
                      "optional regression gate")
    scale = bench.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true",
                       help="small sweeps, every figure (default)")
    scale.add_argument("--full", action="store_true",
                       help="paper-scale sweeps")
    bench.add_argument("--only", action="append", metavar="FIG",
                       help="run only this figure (repeatable), "
                            "e.g. --only fig03 --only fig08")
    bench.add_argument("--baseline", metavar="PATH", default=None,
                       help="compare against a prior BENCH_*.json and "
                            "exit non-zero on regression")
    bench.add_argument("--out", metavar="DIR", default=None,
                       help="output directory "
                            "(default benchmarks/results)")
    bench.add_argument("--jobs", type=_positive_int, default=1,
                       metavar="N",
                       help="shard the figure matrix across N processes; "
                            "the merged record is byte-stable regardless "
                            "of N (default 1)")

    return parser


def cmd_schemes() -> int:
    name_w = max(len(name) for name in ALL_SCHEMES) + 2
    label_w = max(len(scheme_properties(name).label)
                  for name in ALL_SCHEMES) + 2
    print(f"{'name':<{name_w}}{'label':<{label_w}}security")
    for name in ALL_SCHEMES:
        props = scheme_properties(name)
        security = []
        if props.iommu_protection:
            security.append("iommu")
        if props.sub_page:
            security.append("sub-page")
        if props.no_window:
            security.append("no-window")
        print(f"{name:<{name_w}}{props.label:<{label_w}}"
              f"{'+'.join(security) or 'none'}")
    print("\naliases: " + ", ".join(
        f"{alias} -> {target}"
        for alias, target in sorted(PAPER_ALIASES.items())))
    return 0


def cmd_audit(scheme: str | None, exposure: bool = False) -> int:
    schemes: Sequence[str] = (scheme,) if scheme else ALL_SCHEMES
    rows = audit_all(schemes=schemes, strict=False, exposure=exposure)
    print(render_table1(rows))
    if exposure:
        print()
        print(render_audit_exposure(rows))
    bad = [row.scheme for row in rows if not row.matches_claims]
    if bad:
        print(f"\nMISMATCH between observed and claimed properties: {bad}",
              file=sys.stderr)
        return 1
    print("\nall observed security properties match the schemes' claims")
    return 0


def _make_obs(args, always: bool = False) -> Observability | None:
    """Build the capture context when an output flag was given.

    ``--json``/``--perfetto`` capture too so their outputs carry span
    and request attribution; the zero-overhead guarantee keeps the
    numbers identical either way.  ``always`` forces capture even with
    no output flags (the ``trace`` subcommand always records requests).
    """
    trace = getattr(args, "trace", None)
    json_out = getattr(args, "json", None)
    perfetto = getattr(args, "perfetto", None)
    if not always and trace is None and json_out is None \
            and perfetto is None:
        return None
    # Fail fast on unwritable paths — before the run, not after it.
    for label, path in (("trace", trace), ("json", json_out),
                        ("perfetto", perfetto)):
        if path is None or path == "-":
            continue
        try:
            with open(path, "w"):
                pass
        except OSError as exc:
            raise SystemExit(
                f"error: cannot write {label} to {path}: {exc}")
    return Observability.capture(trace_capacity=args.trace_limit)


def _json_quiet(args) -> bool:
    """``--json -`` owns stdout: suppress the human-readable output."""
    return getattr(args, "json", None) == "-"


def _finish_obs(obs: Observability | None, args,
                result: RunResult | None = None) -> None:
    """Write the JSONL trace / JSON record; print the report."""
    if obs is None:
        return
    json_out = getattr(args, "json", None)
    if json_out is not None and result is not None:
        from repro.bench.record import single_run_record
        from repro.stats.export import result_to_row

        record = single_run_record(result_to_row(result),
                                   spans=obs.spans.to_dict())
        text = json.dumps(record, indent=2) + "\n"
        if json_out == "-":
            sys.stdout.write(text)
        else:
            with open(json_out, "w") as fh:
                fh.write(text)
    perfetto = getattr(args, "perfetto", None)
    if perfetto is not None:
        from repro.obs.perfetto import write_perfetto

        count = write_perfetto(obs, perfetto)
        if not _json_quiet(args):
            print(f"perfetto        : {count} events written to "
                  f"{perfetto} (open in ui.perfetto.dev)")
    if args.trace is not None:
        count = obs.tracer.write_jsonl(args.trace)
        if not _json_quiet(args):
            print()
            print(render_observability_report(obs))
            print(f"trace           : {count} events written to "
                  f"{args.trace}")


def cmd_trace(args) -> int:
    """Run one workload under full capture; tell the request story."""
    obs = _make_obs(args, always=True)
    if args.workload == "stream":
        result = run_tcp_stream(StreamConfig(
            scheme=args.scheme, direction=args.direction,
            message_size=args.size, cores=args.cores,
            units_per_core=args.units,
            warmup_units=max(20, args.units // 10), obs=obs))
    elif args.workload == "rr":
        result = run_tcp_rr(RRConfig(
            scheme=args.scheme, message_size=args.size,
            transactions=args.units,
            warmup_transactions=max(10, args.units // 10), obs=obs))
    elif args.workload == "memcached":
        result = run_memcached(MemcachedConfig(
            scheme=args.scheme, cores=args.cores,
            transactions_per_core=args.units,
            warmup_transactions=max(10, args.units // 10), obs=obs))
    else:
        result = run_storage(StorageConfig(
            scheme=args.scheme, block_size=args.size,
            cores=args.cores, ops_per_core=args.units,
            warmup_ops=max(10, args.units // 10), obs=obs))
    if not _json_quiet(args):
        _print_result(result, show_latency=True, show_tps=True)
        print()
        print(render_request_summary(obs.requests))
        print()
        print(render_tail_report(tail_report(obs.requests,
                                             percentile=args.tail)))
        if args.requests:
            slowest = sorted(obs.requests.retained(),
                             key=lambda r: -r.latency)[:3]
            for record in slowest:
                print()
                print(render_request_timeline(record))
    _finish_obs(obs, args, result)
    return 0


def cmd_chaos(args) -> int:
    """Run the chaos soak matrix; non-zero when an invariant breaks."""
    from repro.faults.plan import FaultPlan
    from repro.faults.soak import (MIXES, SoakRow, mix_plan,
                                   render_soak_report, run_chaos,
                                   soak_matrix)

    seeds = tuple(args.seed) if args.seed else (1,)
    if args.schemes is not None:
        schemes = tuple(_scheme(s.strip())
                        for s in args.schemes.split(",") if s.strip())
        if not schemes:
            raise ConfigurationError(f"empty scheme list {args.schemes!r}")
    else:
        schemes = ALL_SCHEMES
    if args.plan is not None:
        rows = []
        for scheme in schemes:
            for seed in seeds:
                base = run_chaos(scheme, FaultPlan(seed=seed),
                                 cores=args.cores, units=args.units)
                res = run_chaos(scheme, FaultPlan.parse(args.plan,
                                                        seed=seed),
                                cores=args.cores, units=args.units)
                rows.append(SoakRow(result=res, mix="custom",
                                    baseline_goodput=base.goodput))
    else:
        mixes = (tuple(MIXES) if args.mix == "all"
                 else () if args.mix == "none" else (args.mix,))
        rows = soak_matrix(schemes, mixes, seeds, cores=args.cores,
                           units=args.units)
    text = render_soak_report(rows)
    if args.json != "-":
        print(text)
    if args.report is not None:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
        if args.json != "-":
            print(f"report written to {args.report}")
    if args.json is not None:
        payload = json.dumps([_soak_row_dict(row) for row in rows],
                             indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload)
    return 0 if all(row.result.ok for row in rows) else 1


def _soak_row_dict(row) -> dict:
    r = row.result
    return {
        "scheme": r.scheme, "mix": row.mix, "seed": r.seed,
        "plan": r.plan_desc, "cores": r.cores, "units": r.units,
        "rx_delivered": r.rx_delivered, "rx_offered": r.rx_offered,
        "tx_segments": r.tx_segments, "wall_cycles": r.wall_cycles,
        "wall_seconds": round(r.wall_seconds, 3),
        "sim_cycles_per_wall_second": round(r.sim_cycles_per_wall_second),
        "goodput": r.goodput, "degradation_pct": row.degradation_pct,
        "faults": r.fault_summary, "recovery": r.recovery,
        "exposure": r.exposure, "violations": r.violations,
    }


def main(argv: Iterable[str] | None = None) -> int:
    args = build_parser().parse_args(
        list(argv) if argv is not None else None)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # One line, one distinct exit code per error family — no
        # tracebacks for anticipated failures (see _EXIT_CODES).
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


def _dispatch(args) -> int:
    if args.command == "schemes":
        return cmd_schemes()
    if args.command == "audit":
        return cmd_audit(args.scheme, exposure=args.exposure)
    if args.command == "stream":
        obs = _make_obs(args)
        result = run_tcp_stream(StreamConfig(
            scheme=args.scheme, direction=args.direction,
            message_size=args.size, cores=args.cores,
            units_per_core=args.units,
            warmup_units=max(50, args.units // 10), obs=obs))
        if not _json_quiet(args):
            _print_result(result)
        _finish_obs(obs, args, result)
        return 0
    if args.command == "rr":
        obs = _make_obs(args)
        result = run_tcp_rr(RRConfig(
            scheme=args.scheme, message_size=args.size,
            transactions=args.transactions,
            warmup_transactions=max(20, args.transactions // 10), obs=obs))
        if not _json_quiet(args):
            _print_result(result, show_latency=True)
        _finish_obs(obs, args, result)
        return 0
    if args.command == "memcached":
        obs = _make_obs(args)
        result = run_memcached(MemcachedConfig(
            scheme=args.scheme, cores=args.cores,
            transactions_per_core=args.transactions,
            warmup_transactions=max(30, args.transactions // 10), obs=obs))
        if not _json_quiet(args):
            _print_result(result, show_tps=True)
        _finish_obs(obs, args, result)
        return 0
    if args.command == "storage":
        obs = _make_obs(args)
        result = run_storage(StorageConfig(
            scheme=args.scheme, block_size=args.block_size,
            cores=args.cores, ops_per_core=args.ops,
            warmup_ops=max(20, args.ops // 10), obs=obs))
        if not _json_quiet(args):
            _print_result(result, show_tps=True)
        _finish_obs(obs, args, result)
        return 0
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "scale":
        from repro.bench.scale import run_scale

        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
        try:
            cores = [int(c) for c in args.cores.split(",") if c.strip()]
        except ValueError:
            raise ConfigurationError(
                f"bad core list {args.cores!r}: expected "
                f"comma-separated integers")
        mode = "full" if args.full else "quick"
        return run_scale(workload=args.workload, schemes=schemes,
                         cores=cores, mode=mode, jobs=args.jobs,
                         out_dir=args.out)
    if args.command == "fleet":
        from repro.bench.fleet import run_fleet_capacity

        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
        mode = "full" if args.full else "quick"
        return run_fleet_capacity(schemes=schemes, mode=mode,
                                  jobs=args.jobs, out_dir=args.out)
    if args.command == "diff":
        from repro.obs.diff.command import run_diff

        schemes = [_scheme(s.strip())
                   for s in args.schemes.split(",") if s.strip()]
        mode = "full" if args.full else "quick"
        return run_diff(paths=args.paths, workload=args.workload,
                        schemes=schemes, mode=mode, cores=args.cores,
                        size=args.size, units=args.units,
                        tail=args.tail, jobs=args.jobs,
                        out_dir=args.out, quiet=args.quiet)
    if args.command == "report":
        from repro.bench.report import run_report

        return run_report(out=args.out, only=args.only, tail=args.tail,
                          jobs=args.jobs)
    if args.command == "bench":
        from repro.bench.runner import run_bench

        mode = "full" if args.full else "quick"
        return run_bench(mode=mode, only=args.only,
                         baseline=args.baseline, out_dir=args.out,
                         jobs=args.jobs)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
