"""System assembly tests."""

import pytest

from repro.errors import ConfigurationError
from repro.system import NIC_DEVICE_ID, System, SystemConfig


def test_default_build():
    system = System.build(SystemConfig())
    assert system.machine.num_cores == 1
    assert system.iommu is not None
    assert system.dma_api.name == "copy"
    assert system.nic.device_id == NIC_DEVICE_ID
    assert system.nic.num_queues == 1


def test_no_iommu_build_skips_iommu():
    system = System.build(SystemConfig(scheme="no-iommu"))
    assert system.iommu is None


def test_queues_default_one_per_core():
    system = System.build(SystemConfig(cores=4))
    assert system.nic.num_queues == 4
    system.setup_queues()
    for qid in range(4):
        assert qid in system.driver._rx_rings
    system.teardown_queues()


def test_numa_nodes_clamped_to_cores():
    system = System.build(SystemConfig(cores=1, numa_nodes=2))
    assert system.machine.num_nodes == 1


def test_scheme_kwargs_flow_through():
    system = System.build(SystemConfig(
        scheme="copy", scheme_kwargs={"sticky": False}))
    assert system.dma_api.pool.sticky is False


def test_custom_cost_model():
    from repro.sim.costmodel import CostModel

    cost = CostModel(rx_parse_cycles=123)
    system = System.build(SystemConfig(cost=cost))
    assert system.cost.rx_parse_cycles == 123


def test_rx_buf_size_flows_to_driver():
    system = System.build(SystemConfig(rx_buf_size=16384))
    assert system.driver.rx_buf_size == 16384


def test_invalid_scheme_rejected():
    with pytest.raises(ConfigurationError):
        System.build(SystemConfig(scheme="not-a-scheme"))


def test_swiotlb_system_end_to_end():
    from repro.net.packets import build_frame

    system = System.build(SystemConfig(scheme="swiotlb", cores=2))
    system.setup_queues()
    core = system.machine.core(0)
    assert system.driver.receive_one(core, 0, build_frame(500)) == 500
    system.teardown_queues()


def test_self_invalidating_system_end_to_end():
    from repro.net.packets import build_frame

    # Generous budget: ring descriptors are read repeatedly.
    system = System.build(SystemConfig(
        scheme="self-invalidating", cores=1,
        scheme_kwargs={"dma_budget": 64, "lifetime_us": 1e6}))
    system.setup_queues()
    core = system.machine.core(0)
    for _ in range(10):
        assert system.driver.receive_one(core, 0, build_frame(700)) == 700
    system.teardown_queues()
