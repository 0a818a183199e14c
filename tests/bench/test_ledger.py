"""The paper-fidelity ledger (:mod:`repro.bench.ledger`) against the
checked-in quick baseline, and its hold on ``repro bench``'s exit
status."""

import copy
import dataclasses
import json
import os

import pytest

from repro.bench import ledger, runner
from repro.bench.ledger import (
    CLAIMS,
    FAIL,
    FULL_ONLY,
    NOT_RUN,
    PASS,
    QUICK_AND_FULL,
    evaluate,
)
from repro.bench.runner import FIGURE_NAMES
from repro.bench.scales import QUICK_SCALE

BASELINE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "benchmarks", "results", "baseline.json")


@pytest.fixture(scope="module")
def baseline():
    with open(BASELINE) as fh:
        return json.load(fh)


def _claim(claim_id):
    (claim,) = [claim for claim in CLAIMS if claim.id == claim_id]
    return claim


def _by_id(record):
    return {verdict.claim.id: verdict for verdict in evaluate(record)}


def _row(record, figure, scheme, **params):
    (row,) = [row for row in record["figures"][figure]["series"]
              if row["scheme"] == scheme
              and all(row[f"param_{k}"] == v for k, v in params.items())]
    return row


def test_every_quick_claim_holds_on_the_baseline(baseline):
    """Each quick claim's lookups find exactly one row and its bound
    holds; full-only claims are not run, not passed."""
    assert baseline["fingerprint"]["mode"] == "quick"
    for verdict in evaluate(baseline):
        if "quick" in verdict.claim.runs_at:
            assert (verdict.status, verdict.detail) == (PASS, ""), verdict
        else:
            assert (verdict.status, verdict.detail) == (
                NOT_RUN, "full scale only"), verdict


def test_claim_ids_are_unique_and_read_registry_figures():
    """Every claim runs at full; only fig11's is marked full-only by
    hand, the rest follow the sizing table."""
    ids = [claim.id for claim in CLAIMS]
    assert len(set(ids)) == len(ids)
    for claim in CLAIMS:
        assert set(claim.figures) <= set(FIGURE_NAMES), claim.id
        assert "full" in claim.runs_at, claim.id
        if claim.id != "fig11.copy-vs-identity-strict":
            assert claim.scales == QUICK_AND_FULL, claim.id
    assert _claim("fig11.copy-vs-identity-strict").scales \
        == FULL_ONLY


def test_quick_eligibility_follows_the_sizing_table(monkeypatch):
    """A size added to the quick sweep makes the claims reading it run
    at quick, with no edit to the ledger."""
    no_gap = _claim("fig07.no-gap-64k")
    assert no_gap.runs_at == FULL_ONLY
    monkeypatch.setitem(ledger.SCALES, "quick", dataclasses.replace(
        QUICK_SCALE, sizes_multi=QUICK_SCALE.sizes_multi + (65536,)))
    assert no_gap.runs_at == QUICK_AND_FULL


def test_the_sizing_table_is_what_the_quick_baseline_ran(baseline):
    for name, figure in baseline["figures"].items():
        sizes = {row.get("param_message_size") for row in figure["series"]}
        if sizes == {None}:
            with pytest.raises(KeyError):
                QUICK_SCALE.message_sizes(name)
        else:
            assert sizes == set(QUICK_SCALE.message_sizes(name)), name


def test_full_only_claims_lack_their_inputs_at_quick(baseline, monkeypatch):
    """A claim is full-only because a quick record does not hold what it
    reads: a size quick skips (no row), or fig11, which quick runs at 8
    cores rather than 16 and where the claim reads 2.78x."""
    full_only = [claim for claim in CLAIMS if "quick" not in claim.runs_at]
    monkeypatch.setattr(ledger.Cell, "swept_at", lambda cell, scale: True)
    monkeypatch.setattr(ledger, "CLAIMS", tuple(
        dataclasses.replace(claim, scales=QUICK_AND_FULL)
        for claim in full_only))
    for verdict in evaluate(baseline):
        if verdict.claim.id == "fig11.copy-vs-identity-strict":
            assert {row["param_cores"] for row
                    in baseline["figures"]["fig11"]["series"]} == {8}
            assert verdict.status == FAIL
            assert verdict.value == pytest.approx(2.78, abs=0.005)
        else:
            assert verdict.status == FAIL, verdict
            assert "matches 0 rows" in verdict.detail, verdict


def test_a_row_past_a_bound_fails_its_claim_and_the_bench(baseline,
                                                          monkeypatch,
                                                          tmp_path, capsys):
    tampered = copy.deepcopy(baseline)
    # The bound is strict (< 0.05), so the limit itself breaks it.
    _row(tampered, "fig08", "copy")["us_spinlock"] = 0.05
    assert [v.claim.id for v in ledger.broken(evaluate(tampered))] \
        == ["fig08.rx-copy-spinlock"]

    def run(record):
        monkeypatch.setattr(runner, "build_figures", lambda *a, **k: (
            record["figures"], record["throughput"]))
        return runner.run_bench(mode="quick", out_dir=str(tmp_path))

    assert run(baseline) == 0
    assert run(tampered) == 1
    out = capsys.readouterr().out
    assert "FAIL: 44 claims hold, 1 broken, 31 not run: " \
           "fig08.rx-copy-spinlock" in out


def test_a_lookup_must_find_exactly_one_row(baseline):
    doubled = copy.deepcopy(baseline)
    series = doubled["figures"]["fig10"]["series"]
    series.append(dict(_row(doubled, "fig10", "copy")))
    verdicts = _by_id(doubled)
    for claim_id in ("fig10.copy-copying-share",
                     "fig10.copy-no-invalidations"):
        assert verdicts[claim_id].status == FAIL
        assert "matches 2 rows" in verdicts[claim_id].detail
    assert verdicts["fig10.strict-iommu-share"].status == PASS


def test_a_zero_divisor_fails_its_claim_instead_of_raising(baseline):
    zeroed = copy.deepcopy(baseline)
    _row(zeroed, "fig05", "copy")["us_memcpy"] = 0.0
    verdicts = _by_id(zeroed)
    assert verdicts["fig05.rx-invalidate-vs-memcpy"].status == FAIL
    assert "division by zero" in \
        verdicts["fig05.rx-invalidate-vs-memcpy"].detail
    assert verdicts["fig05.rx-copy-memcpy"].status == PASS


def test_a_figure_not_run_is_reported_not_run(baseline):
    only_fig08 = copy.deepcopy(baseline)
    only_fig08["figures"] = {"fig08": only_fig08["figures"]["fig08"]}
    only_fig08["fingerprint"]["mode"] = "full"
    verdicts = _by_id(only_fig08)
    assert verdicts["fig08.rx-strict-spinlock"].status == PASS
    # Fig. 8b reads fig07's TX row too: one missing figure is enough.
    milder = verdicts["fig08.tx-spinlock-milder"]
    assert (milder.status, milder.detail) == (NOT_RUN,
                                              "fig07 not in the record")
    for claim in CLAIMS:
        if "fig08" not in claim.figures:
            assert verdicts[claim.id].status == NOT_RUN, claim.id
