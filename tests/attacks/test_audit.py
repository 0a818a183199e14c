"""Security-audit (Table 1) tests."""

import pytest

from repro.attacks.attacker import AttackerDevice
from repro.attacks.audit import TABLE1_COLUMNS, audit_all, audit_scheme, render_table1
from repro.dma.registry import ALL_SCHEMES
from repro.errors import SecurityViolation


def test_audit_all_schemes_match_claims():
    """Every scheme's observed security equals its Table 1 claims — this
    is the repository's executable version of the paper's Table 1."""
    rows = audit_all(strict=True)
    assert len(rows) == len(ALL_SCHEMES)
    assert all(row.matches_claims for row in rows)


def test_copy_is_the_only_fully_secure_scheme():
    rows = audit_all(strict=False)
    fully = [r.scheme for r in rows
             if all(r.observed[c] for c in TABLE1_COLUMNS)]
    assert fully == ["copy"]
    # Copy is also the only scheme that defeats every attack, whatever
    # its performance columns say.
    secure = [r.scheme for r in rows
              if all(r.observed[c] for c in TABLE1_COLUMNS[:3])]
    assert secure == ["copy"]


def test_audit_single_scheme_detail():
    row = audit_scheme("identity-deferred")
    assert row.observed["iommu protection"]
    assert not row.observed["sub-page protect"]
    assert not row.observed["no vulnerability window"]
    assert len(row.outcomes) == 4


def test_render_table1_contains_all_rows():
    rows = audit_all(strict=False)
    text = render_table1(rows)
    assert "copy (shadow buffers)" in text
    assert "identity+" in text
    assert "no-iommu" in text
    for column in TABLE1_COLUMNS:
        assert column in text


def test_strict_mode_raises_on_mismatch(monkeypatch):
    import repro.attacks.audit as audit_mod

    real = audit_mod.audit_scheme

    def lying_audit(scheme, **kw):
        row = real(scheme, **kw)
        if scheme == "copy":
            row.observed["sub-page protect"] = False
        return row

    monkeypatch.setattr(audit_mod, "audit_scheme", lying_audit)
    with pytest.raises(SecurityViolation):
        audit_mod.audit_all(schemes=("copy",), strict=True)


def test_attacker_probe_accounting(machine, make_api, allocators):
    api = make_api("identity-strict")
    attacker = AttackerDevice(api.port())
    attacker.try_read(0xdead000, 16)
    assert attacker.blocked_probes == 1
    assert attacker.successful_probes == 0
    assert attacker.probes[0].fault_reason


def test_attacker_scan_finds_secret_without_iommu(machine, make_api,
                                                  allocators):
    api = make_api("no-iommu")
    attacker = AttackerDevice(api.port())
    buf = allocators.kmalloc(64, node=0)
    machine.memory.write(buf.pa, b"NEEDLE-12345")
    base = (buf.pa >> 12) << 12
    found = attacker.scan_for(b"NEEDLE-12345", base - 8192, 5 * 4096)
    assert found is not None
    assert found == buf.pa


def test_attacker_scan_blocked_by_iommu(machine, make_api, allocators):
    api = make_api("copy")
    attacker = AttackerDevice(api.port())
    buf = allocators.kmalloc(64, node=0)
    machine.memory.write(buf.pa, b"NEEDLE-12345")
    assert attacker.scan_for(b"NEEDLE-12345", 0, 16 * 4096) is None
    assert attacker.blocked_probes == 16
