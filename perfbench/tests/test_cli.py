"""The command line end to end, at tiny sizes."""

import json
import os
import shutil
import subprocess
import sys

from perfbench.cli import BENCHMARK_JSON, ROOT


def _perfbench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "-m", "perfbench", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def _benchmark():
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_check_passes():
    proc = _perfbench("--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("check: ok")


def test_printed_metrics_match_benchmark_json():
    spec = _benchmark()
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _perfbench("--workload", "bulk-dma", "--seed", "4",
                          "--seconds", "0", "--scale", "0.02",
                          "--trace", trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = _last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == expected
        for name, unit in expected.items():
            assert f"  {name} " in proc.stdout       # the table row


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _perfbench("--workload", "rr-kv", "--seconds", "0",
                      "--scale", "0.02", cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
