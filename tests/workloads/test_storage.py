"""Storage workload tests (§5.5 extension)."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.storage import (
    SSD_READ_IOPS_4K,
    SSD_WRITE_IOPS_4K,
    StorageConfig,
    run_storage,
)


def small(**kw):
    defaults = dict(ops_per_core=120, warmup_ops=20)
    defaults.update(kw)
    return StorageConfig(**defaults)


def test_basic_run_accounting():
    r = run_storage(small(scheme="copy", block_size=4096))
    assert r.units == 120
    assert r.payload_bytes == 120 * 4096
    assert r.transactions_per_sec > 0
    assert r.workload == "storage"


def test_default_iops_ceiling_scales_with_block_size():
    cfg4k = StorageConfig(block_size=4096, read_fraction=1.0)
    cfg64k = StorageConfig(block_size=65536, read_fraction=1.0)
    assert cfg4k.resolved_iops() == SSD_READ_IOPS_4K
    assert cfg64k.resolved_iops() == pytest.approx(SSD_READ_IOPS_4K / 16)


def test_write_only_ceiling():
    cfg = StorageConfig(block_size=4096, read_fraction=0.0)
    assert cfg.resolved_iops() == SSD_WRITE_IOPS_4K


def test_explicit_ceiling_binds():
    r = run_storage(small(scheme="no-iommu", device_iops=50_000.0))
    assert r.transactions_per_sec == pytest.approx(50_000.0, rel=0.05)
    assert r.cpu_utilization < 0.5


def test_huge_blocks_take_hybrid_path():
    r = run_storage(small(scheme="copy", block_size=262_144))
    assert r.extras["hybrid_maps"] == 140  # warmup + measured ops


def test_huge_blocks_protection_is_cheap():
    """§5.5: at device-bound huge-block rates the protection scheme no
    longer matters for throughput."""
    base = run_storage(small(scheme="no-iommu", block_size=262_144))
    strict = run_storage(small(scheme="identity-strict", block_size=262_144))
    copy = run_storage(small(scheme="copy", block_size=262_144))
    assert strict.transactions_per_sec == pytest.approx(
        base.transactions_per_sec, rel=0.02)
    assert copy.transactions_per_sec == pytest.approx(
        base.transactions_per_sec, rel=0.02)


def test_small_blocks_copy_beats_strict():
    copy = run_storage(small(scheme="copy", block_size=4096))
    strict = run_storage(small(scheme="identity-strict", block_size=4096))
    assert copy.transactions_per_sec > strict.transactions_per_sec


def test_swiotlb_works_for_storage():
    r = run_storage(small(scheme="swiotlb", block_size=4096))
    assert r.transactions_per_sec > 0


def test_invalid_configs():
    with pytest.raises(ConfigurationError):
        run_storage(small(block_size=100))
    with pytest.raises(ConfigurationError):
        run_storage(small(read_fraction=2.0))


def test_multicore_storage():
    r = run_storage(small(scheme="copy", cores=4, block_size=4096))
    assert r.units == 480
    assert r.cores == 4


def test_deterministic():
    a = run_storage(small(scheme="copy"))
    b = run_storage(small(scheme="copy"))
    assert a.transactions_per_sec == b.transactions_per_sec


#: §5.5 at 1 MB blocks: device-bound, so the scheme stops mattering.
MEGABYTE_SCHEMES = ("no-iommu", "copy", "identity-strict",
                    "identity-deferred")


@pytest.fixture(scope="module")
def megabyte():
    return {scheme: run_storage(StorageConfig(
                scheme=scheme, block_size=1048576, ops_per_core=300,
                warmup_ops=50))
            for scheme in MEGABYTE_SCHEMES}


@pytest.mark.parametrize("scheme", MEGABYTE_SCHEMES)
def test_megabyte_blocks_tie_across_schemes(megabyte, scheme):
    base = megabyte["no-iommu"].transactions_per_sec
    assert abs(megabyte[scheme].transactions_per_sec - base) / base < 0.02


def test_megabyte_copy_stays_at_low_cpu(megabyte):
    assert megabyte["copy"].cpu_utilization < 0.35


def test_megabyte_copy_takes_the_hybrid_path(megabyte):
    assert megabyte["copy"].extras["hybrid_maps"] >= 300


def test_megabyte_hybrid_keeps_copy_cpu_near_strict(megabyte):
    """Head/tail copies only: copying 1 MB outright would be ~10x."""
    assert (megabyte["copy"].cpu_utilization
            < 3.0 * megabyte["identity-strict"].cpu_utilization)
