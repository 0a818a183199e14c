#!/usr/bin/env python3
"""One sha256 per runner × scheme over everything a captured run records.

Runs seven small captured workloads — RX stream, 64 KB and 256 B TX
stream, TCP_RR at 64 B and 64 KB, memcached and storage — under each of
five schemes, and prints one line per case::

    <runner> <scheme> <sha256>

Each digest covers what the run's
:class:`~repro.obs.context.Observability` recorded: the span tree and
the span paths still open, the trace (JSONL, each event's
``to_dict()`` and the ``emitted`` count), the retained request records,
the requests still open, the p99 tail report, the phases, and the
metrics, exposure, request and lock summaries the run attached to its
extras.  The runs are deterministic,
so a change that only makes recording cheaper must print the same lines
before and after::

    PYTHONPATH=src python benchmarks/capture_digest.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from typing import Callable, Dict, List, Tuple

try:
    from repro.obs.context import Observability
    from repro.obs.requests import tail_report
    from repro.workloads.memcached import MemcachedConfig, run_memcached
    from repro.workloads.netperf import (RRConfig, StreamConfig, run_tcp_rr,
                                         run_tcp_stream)
    from repro.workloads.storage import StorageConfig, run_storage
except ImportError:
    sys.exit("error: the 'repro' package is not importable; run with "
             "PYTHONPATH=src (from the repository root) or install it")

SCHEMES = ("no-iommu", "copy", "identity-strict", "identity-deferred",
           "identity-strict-percore")

#: Runner name → function running it captured under one scheme.
RUNNERS: Dict[str, Callable[[str, Observability], object]] = {
    "stream-rx-16k": lambda scheme, obs: run_tcp_stream(StreamConfig(
        scheme=scheme, direction="rx", message_size=16384, cores=16,
        units_per_core=30, warmup_units=6, obs=obs)),
    "stream-tx-64k": lambda scheme, obs: run_tcp_stream(StreamConfig(
        scheme=scheme, direction="tx", message_size=65536, cores=1,
        units_per_core=40, warmup_units=8, obs=obs)),
    "stream-tx-256": lambda scheme, obs: run_tcp_stream(StreamConfig(
        scheme=scheme, direction="tx", message_size=256, cores=2,
        units_per_core=60, warmup_units=10, obs=obs)),
    "rr-64": lambda scheme, obs: run_tcp_rr(RRConfig(
        scheme=scheme, message_size=64, transactions=60,
        warmup_transactions=10, obs=obs)),
    "rr-64k": lambda scheme, obs: run_tcp_rr(RRConfig(
        scheme=scheme, message_size=65536, transactions=40,
        warmup_transactions=8, obs=obs)),
    "memcached": lambda scheme, obs: run_memcached(MemcachedConfig(
        scheme=scheme, cores=4, transactions_per_core=30,
        warmup_transactions=6, obs=obs)),
    "storage-64k": lambda scheme, obs: run_storage(StorageConfig(
        scheme=scheme, block_size=65536, cores=2, ops_per_core=40,
        warmup_ops=8, obs=obs)),
}

#: Result extras the capture attaches (``attach_capture``).
CAPTURE_EXTRAS = ("metrics", "exposure", "requests", "locks")

#: Parts whose key order follows string hashing, which varies between
#: processes: ``tail_report`` orders stages of equal share by set
#: iteration.  They are hashed with sorted keys; every other part pins
#: its key order too.
HASH_ORDERED = ("tail",)


def recorded(obs: Observability, result) -> Dict[str, object]:
    """Everything ``obs`` recorded in one run, as JSON-friendly data."""
    return {
        "spans": obs.spans.to_dict(),
        "open_spans": sorted(obs.spans.open_paths().items()),
        "trace": obs.tracer.to_jsonl(),
        "events": [event.to_dict() for event in obs.tracer],
        "emitted": obs.tracer.emitted,
        "requests": [r.to_dict() for r in obs.requests.retained()],
        "open_requests": sorted(obs.requests.active_rids().items()),
        "tail": tail_report(obs.requests),
        "phases": [dataclasses.asdict(p) for p in obs.phases],
        "extras": {key: result.extras.get(key) for key in CAPTURE_EXTRAS},
    }


def digest(runner: str, scheme: str) -> str:
    obs = Observability.capture()
    result = RUNNERS[runner](scheme, obs)
    sha = hashlib.sha256()
    for name, part in recorded(obs, result).items():
        sha.update(json.dumps([name, part], separators=(",", ":"),
                              sort_keys=name in HASH_ORDERED).encode())
    return sha.hexdigest()


def main() -> int:
    cases: List[Tuple[str, str]] = [(runner, scheme) for runner in RUNNERS
                                    for scheme in SCHEMES]
    for runner, scheme in cases:
        print(f"{runner} {scheme} {digest(runner, scheme)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
