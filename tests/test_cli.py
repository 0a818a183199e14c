"""CLI tests (python -m repro ...)."""

import json

import pytest

from repro.bench.record import SCHEMA_VERSION
from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_schemes_lists_everything(capsys):
    code, out = run_cli(capsys, "schemes")
    assert code == 0
    for name in ("no-iommu", "copy", "identity-strict", "swiotlb",
                 "self-invalidating"):
        assert name in out


def test_audit_all(capsys):
    code, out = run_cli(capsys, "audit")
    assert code == 0
    assert "copy (shadow buffers)" in out
    assert "match the schemes' claims" in out


def test_audit_single_scheme(capsys):
    code, out = run_cli(capsys, "audit", "--scheme", "identity-")
    assert code == 0
    assert "identity-" in out


def test_audit_exposure_report(capsys):
    code, out = run_cli(capsys, "audit", "--exposure")
    assert code == 0
    assert "Exposure report" in out
    assert "stale B*cyc" in out
    # Schemes with no IOMMU domain render as unprotected.
    assert "device reach not bounded by translation" in out
    # The deferred scheme's stale window is a positive number; copy's
    # row is all zeros for stale and excess.
    report = out[out.index("Exposure report"):]
    deferred = copy_row = None
    for line in report.splitlines():
        if line.startswith("identity- (deferred"):
            deferred = line.split()
        if line.startswith("copy (shadow buffers)"):
            copy_row = line.split()
    assert deferred is not None and copy_row is not None
    assert int(deferred[-7]) > 0               # stale B*cyc column
    assert copy_row[-7] == "0" and copy_row[-4] == "0"


def test_stream_rx(capsys):
    code, out = run_cli(capsys, "stream", "--scheme", "copy",
                        "--size", "16384", "--units", "150")
    assert code == 0
    assert "Gb/s" in out
    assert "tcp_stream_rx" in out
    assert "shadow pool" in out


def test_stream_tx_with_alias(capsys):
    code, out = run_cli(capsys, "stream", "--scheme", "identity+",
                        "--direction", "tx", "--size", "65536",
                        "--units", "100")
    assert code == 0
    assert "tcp_stream_tx" in out
    assert "invalidations" in out


def test_rr(capsys):
    code, out = run_cli(capsys, "rr", "--scheme", "no-iommu",
                        "--size", "64", "--transactions", "50")
    assert code == 0
    assert "mean latency" in out


def test_memcached(capsys):
    code, out = run_cli(capsys, "memcached", "--scheme", "copy",
                        "--cores", "2", "--transactions", "80")
    assert code == 0
    assert "transactions/s" in out


def test_storage(capsys):
    code, out = run_cli(capsys, "storage", "--scheme", "copy",
                        "--block-size", "262144", "--ops", "60")
    assert code == 0
    assert "transactions/s" in out


def test_stream_json_to_file(capsys, tmp_path):
    out_path = tmp_path / "run.json"
    code, out = run_cli(capsys, "stream", "--scheme", "copy",
                        "--size", "16384", "--units", "120",
                        "--json", str(out_path))
    assert code == 0
    assert "Gb/s" in out                  # human output stays
    record = json.loads(out_path.read_text())
    assert record["schema_version"] == SCHEMA_VERSION
    (row,) = record["figures"]["single"]["series"]
    assert row["scheme"] == "copy"
    assert row["workload"] == "tcp_stream_rx"
    assert row["throughput_gbps"] > 0
    # Spans ride along under the scheme's name.
    spans = record["figures"]["single"]["spans"]["copy"]
    assert any(c["name"] == "step" for c in spans["children"])


def test_rr_json_to_stdout_is_pure_json(capsys):
    code, out = run_cli(capsys, "rr", "--scheme", "no-iommu",
                        "--size", "64", "--transactions", "40",
                        "--json", "-")
    assert code == 0
    record = json.loads(out)              # nothing but the record
    (row,) = record["figures"]["single"]["series"]
    assert row["workload"] == "tcp_rr"
    assert row["latency_us"] is not None


def test_json_identical_numbers_to_plain_run(capsys, tmp_path):
    """--json enables capture; the zero-overhead guarantee means the
    recorded numbers match an instrumentation-free run exactly."""
    code, plain = run_cli(capsys, "storage", "--scheme", "copy",
                          "--block-size", "4096", "--ops", "50")
    assert code == 0
    out_path = tmp_path / "st.json"
    code, _ = run_cli(capsys, "storage", "--scheme", "copy",
                      "--block-size", "4096", "--ops", "50",
                      "--json", str(out_path))
    assert code == 0
    (row,) = json.loads(out_path.read_text())["figures"]["single"]["series"]
    assert f"{row['throughput_gbps']:.2f} Gb/s" in plain


def test_json_fails_fast_on_unwritable_path(capsys):
    with pytest.raises(SystemExit) as err:
        main(["memcached", "--cores", "2", "--transactions", "40",
              "--json", "/nonexistent-dir/x.json"])
    assert "cannot write json" in str(err.value)


def test_bench_parser_accepts_gate_flags():
    args = build_parser().parse_args(
        ["bench", "--quick", "--only", "fig03", "--only", "fig08",
         "--baseline", "b.json", "--out", "/tmp/x"])
    assert args.quick and not args.full
    assert args.only == ["fig03", "fig08"]
    assert args.baseline == "b.json"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "--quick", "--full"])


def test_bench_unknown_figure_fails_fast_with_choices(capsys):
    """``bench --only <typo>`` must die before running anything, and
    the error must name every valid figure."""
    from repro.bench.runner import FIGURE_NAMES

    with pytest.raises(SystemExit) as err:
        main(["bench", "--quick", "--only", "fig99"])
    message = str(err.value)
    assert "unknown figure" in message
    assert "fig99" in message
    for name in FIGURE_NAMES:
        assert name in message


def test_trace_prints_request_story(capsys, tmp_path):
    perfetto_path = tmp_path / "trace.json"
    code, out = run_cli(capsys, "trace", "--workload", "stream",
                        "--scheme", "identity+", "--cores", "2",
                        "--units", "40", "--requests",
                        "--tail", "p99",
                        "--perfetto", str(perfetto_path))
    assert code == 0
    assert "== requests ==" in out
    assert "== tail latency ==" in out
    assert "dominant stage:" in out
    assert "request #" in out             # --requests timelines
    assert "lock_wait" in out
    trace = json.loads(perfetto_path.read_text())
    assert trace["traceEvents"]
    assert trace["otherData"]["requests_exported"] > 0


def test_trace_storage_workload(capsys):
    code, out = run_cli(capsys, "trace", "--workload", "storage",
                        "--scheme", "copy", "--size", "4096",
                        "--units", "50")
    assert code == 0
    assert "storage" in out
    assert "== tail latency ==" in out


def test_trace_rejects_bad_percentile():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "--tail", "p200"])


@pytest.mark.parametrize("argv", [
    ("stream", "--units", "-5"),
    ("trace", "--units", "0"),
    ("rr", "--transactions", "0"),
    ("memcached", "--transactions", "0"),
    ("storage", "--ops", "0"),
], ids=lambda argv: f"{argv[0]}{argv[1]}")
def test_workload_unit_counts_must_be_positive(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["0", "-64"])
def test_rr_message_size_must_be_positive(size, capsys):
    assert main(["rr", "--size", size, "--transactions", "20"]) == 2
    assert "message_size must be positive" in capsys.readouterr().err


def test_unknown_scheme_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["stream", "--scheme", "bogus"])


def test_command_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ----------------------------------------------------------------------
# chaos subcommand + exit-code mapping.
# ----------------------------------------------------------------------
def test_chaos_single_mix(capsys):
    code, out = run_cli(capsys, "chaos", "--seed", "1", "--mix", "device",
                        "--schemes", "copy", "--units", "30")
    assert code == 0
    assert "copy" in out
    assert "0 invariant failure(s)" in out


def test_chaos_custom_plan(capsys):
    code, out = run_cli(capsys, "chaos", "--seed", "2",
                        "--schemes", "identity-strict", "--units", "20",
                        "--plan", "inv.stall:rate=0.2")
    assert code == 0
    assert "custom" in out


def test_chaos_json_output(capsys):
    code, out = run_cli(capsys, "chaos", "--seed", "1", "--mix", "none",
                        "--schemes", "copy", "--units", "10",
                        "--json", "-")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["scheme"] == "copy"
    assert rows[0]["violations"] == []
    assert rows[0]["rx_offered"] == 10


def test_chaos_report_file(capsys, tmp_path):
    path = tmp_path / "chaos.txt"
    code, out = run_cli(capsys, "chaos", "--seed", "1", "--mix", "none",
                        "--schemes", "copy", "--units", "10",
                        "--report", str(path))
    assert code == 0
    assert str(path) in out
    assert "invariant failure(s)" in path.read_text()


def test_chaos_bad_plan_exits_with_config_code(capsys):
    code = main(["chaos", "--plan", "bogus.site:rate=0.5",
                 "--schemes", "copy", "--units", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "unknown fault site" in captured.err
    assert "Traceback" not in captured.err


def test_chaos_bad_scheme_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chaos", "--schemes"])


def test_chaos_empty_scheme_list_exits_with_config_code(capsys):
    code = main(["chaos", "--schemes", " , ", "--units", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert "empty scheme list" in captured.err


def test_exit_codes_distinguish_error_families():
    from repro.cli import exit_code_for
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
    expected = {
        ConfigurationError: 2, IovaExhaustedError: 3,
        PoolExhaustedError: 4, KallocError: 5, AllocationError: 6,
        MemoryAccessError: 7, DmaApiError: 9,
        SecurityViolation: 10, SimulationError: 12, ReproError: 1,
    }
    for kind, code in expected.items():
        assert exit_code_for(kind("boom")) == code
    assert exit_code_for(IommuFault(1, 0x1000, is_write=False)) == 8
    # Subclass specificity: the allocation family stays distinguishable.
    assert exit_code_for(IovaExhaustedError("x")) != \
        exit_code_for(AllocationError("x"))
