"""``python -m perfbench``: run workloads, check them, print every metric.

Each workload runs in a fresh child process (:mod:`perfbench.child`),
one at a time; this process only starts children and reads their JSON
reports.  Output is a table per workload, then one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` (the default) reports the end-to-end metrics of
:data:`perfbench.metrics.END_TO_END`; ``--trace 1`` runs one untraced
and one traced child per workload and reports the per-layer metrics of
:data:`perfbench.metrics.PER_LAYER`.  ``--check`` runs both at a tiny
scale and validates the result against ``BENCHMARK.json``.  The exit
status is 0 only if every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from perfbench import metrics
from perfbench.hostclock import REF_NOMINAL_S
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Default measuring time per workload; BENCHMARK.json's run_seconds.
DEFAULT_SECONDS = 20
#: Passes every untimed-budget run still makes, so medians and the
#: pass-to-pass determinism check always have data.
MIN_PASSES = 3
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170
#: Unit-count scale of ``--check``.
CHECK_SCALE = 0.02


class ChildFailed(RuntimeError):
    """A workload child exited non-zero or timed out."""


def spawn(workload: str, seed: int, seconds: float, scale: float,
          min_passes: int, traced: bool) -> dict:
    """Run one child to completion and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--scale", str(scale), "--min-passes", str(min_passes),
           "--traced", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: child timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: child exited with {proc.returncode}")
    return json.loads(proc.stdout)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _print_table(title: str, rows: Dict[str, dict],
                 defs: Dict[str, tuple]) -> None:
    print(title)
    print(f"  {'metric':<58} {'unit':<12} {'median':>12} {'min':>12} "
          f"{'max':>12} {'n':>3}")
    for name, s in rows.items():
        unit = defs[name][0] if name in defs else s.get("unit", "")
        print(f"  {name:<58} {unit:<12} {_fmt(s['median']):>12} "
              f"{_fmt(s['min']):>12} {_fmt(s['max']):>12} {s['n']:>3}")


def measure(workload: str, seed: int, seconds: float, scale: float,
            min_passes: int = MIN_PASSES) -> dict:
    """Untraced run: end-to-end metrics, extras and problems."""
    report = spawn(workload, seed, seconds, scale, min_passes, traced=False)
    problems = metrics.check_report(report)
    out = {"report": report, "problems": problems}
    if not any(rec["error"] for p in report["passes"] for rec in p):
        samples = metrics.end_to_end(workload, report)
        out["metrics"] = {n: metrics.summarize(v) for n, v in samples.items()}
        out["extras"] = metrics.workload_extras(report)
    return out


def trace(workload: str, seed: int, seconds: float, scale: float,
          untraced: dict) -> dict:
    """Traced run against an untraced report: per-layer metrics."""
    traced = spawn(workload, seed, seconds, scale, 1, traced=True)
    problems = (metrics.check_report(untraced) + metrics.check_report(traced)
                + metrics.check_trace(workload, untraced, traced))
    out = {"report": traced, "untraced": untraced, "problems": problems}
    if not problems:
        values = metrics.per_layer(untraced, traced)
        out["metrics"] = {n: metrics.summarize([v]) for n, v in values.items()}
        out["spans_file"] = traced["trace"]["spans_file"]
    return out


def _report_workload(workload: str, result: dict, defs: Dict[str, tuple],
                     traced: bool) -> None:
    report = result["report"]
    kernel = report["kernel_ms_median"]
    print(f"== {workload}  seed {report['seed']}  "
          f"{len(report['passes'])} pass(es){'  traced' if traced else ''}  "
          f"reference kernel median {kernel:.3f} ms "
          f"(nominal {REF_NOMINAL_S * 1e3:.3f} ms)")
    if "metrics" in result:
        _print_table("  metrics", result["metrics"], defs)
    if result.get("extras"):
        _print_table("  workload-specific (not gated)", result["extras"], {})
    if result.get("spans_file"):
        print(f"  spans written to {result['spans_file']}")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")


def run(workloads: Sequence[str], seed: int, seconds: float, scale: float,
        traced: bool) -> dict:
    """Run ``workloads``; returns per-workload results plus the contract
    summary (correct / attempted / failed / metrics)."""
    defs = metrics.PER_LAYER if traced else metrics.END_TO_END
    results: Dict[str, dict] = {}
    reports: List[dict] = []
    for workload in workloads:
        if traced:
            untraced = spawn(workload, seed, seconds / 2, scale, 1,
                             traced=False)
            result = trace(workload, seed, seconds / 2, scale, untraced)
            reports += [untraced, result["report"]]
        else:
            result = measure(workload, seed, seconds, scale)
            reports.append(result["report"])
        _report_workload(workload, result, defs, traced)
        results[workload] = result
    attempted, failed = metrics.attempted_failed(reports)
    correct = all(not r["problems"] and "metrics" in r
                  for r in results.values())
    flat = {}
    for workload, result in results.items():
        for name, s in result.get("metrics", {}).items():
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            flat[key] = {"value": s["median"], "unit": defs[name][0]}
    return {"results": results,
            "summary": {"correct": correct, "attempted": attempted,
                        "failed": failed, "metrics": flat if correct else {}}}


def _write_result(name: str, args: argparse.Namespace, outcome: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    slim = {w: {k: v for k, v in r.items() if k not in ("report", "untraced")}
            for w, r in outcome["results"].items()}
    with open(OUT_DIR / name, "w") as fh:
        json.dump({"args": vars(args), "summary": outcome["summary"],
                   "workloads": slim}, fh, indent=1)


def check(seed: int) -> int:
    """Tiny-scale run of every workload in both modes, validated against
    BENCHMARK.json.  Returns the exit status."""
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    problems = metrics.validate_benchmark(spec, list(WORKLOADS))
    if spec.get("run_seconds") != DEFAULT_SECONDS:
        problems.append("run_seconds differs from the --seconds default")
    for workload in WORKLOADS:
        measured = measure(workload, seed, 0, CHECK_SCALE, min_passes=2)
        traced = trace(workload, seed, 0, CHECK_SCALE, measured["report"])
        for mode, result, defs in (("end_to_end", measured,
                                    metrics.END_TO_END),
                                   ("per_layer", traced, metrics.PER_LAYER)):
            _report_workload(workload, result, defs, mode == "per_layer")
            problems += [f"{workload}: {p}" for p in result["problems"]]
            printed = set(result.get("metrics", {}))
            if printed != set(defs):
                problems.append(f"{workload} {mode}: printed metrics differ "
                                f"from BENCHMARK.json: "
                                f"{sorted(printed ^ set(defs))}")
    for problem in problems:
        print(f"check: {problem}")
    print("check: ok" if not problems else "check: FAILED")
    return 0 if not problems else 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench",
        description="Simulator speed, setup, memory and paper fidelity.")
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS),
                        help="workloads to run (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the storage and memcached inputs")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every config's unit and core counts")
    parser.add_argument("--check", action="store_true",
                        help="tiny run of everything, validated against "
                             "BENCHMARK.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.check:
            return check(args.seed)
        outcome = run(args.workload, args.seed, args.seconds, args.scale,
                      bool(args.trace))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _write_result("result_trace.json" if args.trace else "result.json",
                  args, outcome)
    print(json.dumps(outcome["summary"]))
    return 0 if outcome["summary"]["correct"] else 1
