"""Deterministic seed derivation shared by every randomized subsystem.

Workloads and the fault planner all need *independent* pseudo-random
streams derived from one user-facing seed: memcached's per-core request
mixes, the storage workload's read/write choices, the fault plan's
per-site schedules.  Ad-hoc
mixing (``seed ^ cid``) is dangerous when streams are composed — two
generators seeded ``seed ^ 1`` and ``seed ^ 1`` collide, and XOR mixes
of small integers keep the streams correlated.

:func:`derive_seed` is the one scheme everything routes through: a
sha256 digest of the base seed plus a stable label path.  sha256 rather
than ``hash()`` so schedules survive interpreter restarts and
``PYTHONHASHSEED`` randomisation (the determinism tests compare traces
byte-for-byte across processes), and labelled rather than XOR-mixed so
distinct subsystems can never collide — ``("memcached", 3)`` and
``("storage", 3)`` derive unrelated streams from the same base seed.
"""

from __future__ import annotations

import hashlib


def derive_seed(seed: int, *parts: object) -> int:
    """A stable 64-bit sub-seed for the stream labelled by ``parts``.

    ``derive_seed(seed, "memcached", cid)`` and
    ``derive_seed(seed, "storage", cid)`` are independent even for the
    same ``seed`` and ``cid``; the same arguments always produce the
    same sub-seed, on any platform, in any process.
    """
    label = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
