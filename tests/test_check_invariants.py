"""``python -m repro.bench.invariants`` must pass (the smoke's first step)."""

import os
import subprocess
import sys


def test_check_invariants_passes():
    result = subprocess.run(
        [sys.executable, "-m", "repro.bench.invariants"],
        capture_output=True, text=True, timeout=180, env={**os.environ},
    )
    assert result.returncode == 0, (
        f"check_invariants failed:\n{result.stdout[-2000:]}\n"
        f"{result.stderr[-2000:]}"
    )
    assert "all invariants hold" in result.stdout
