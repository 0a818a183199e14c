"""One-call assembly of a complete simulated system.

``System.build(SystemConfig(scheme="copy", cores=16))`` wires together a
machine, kernel allocators, the IOMMU (unless the scheme is ``no-iommu``),
the chosen DMA protection scheme, a multi-queue 40 Gb/s NIC, and its
driver — one RX/TX queue pair per core, as the paper configures its
testbed (§6 "Methodology").

This is the main entry point for examples and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.dma.api import DmaApi
from repro.dma.registry import create_dma_api
from repro.hw.machine import Machine
from repro.iommu.iommu import Iommu
from repro.kalloc.slab import KernelAllocators
from repro.net.driver import NicDriver
from repro.net.nic import Nic
from repro.obs.context import Observability
from repro.sim.costmodel import CostModel

#: PCI-ish device id given to the NIC.
NIC_DEVICE_ID = 0x40


@dataclass
class SystemConfig:
    """Everything needed to stand up a system under test."""

    scheme: str = "copy"
    cores: int = 1
    numa_nodes: int = 2
    rx_ring_size: int = 512
    tx_ring_size: int = 512
    rx_buf_size: int = 2048
    use_copy_hints: bool = True
    keep_frames: bool = False
    cost: Optional[CostModel] = None
    iotlb_capacity: int = 4096
    scheme_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Observability context (tracer + metrics); None → disabled.
    obs: Optional[Observability] = None
    #: Fault injector (see repro.faults); None → disabled.
    faults: Optional[Any] = None


class System:
    """A fully wired simulated host + NIC under one protection scheme."""

    def __init__(self, config: SystemConfig, machine: Machine,
                 allocators: KernelAllocators, iommu: Optional[Iommu],
                 dma_api: DmaApi, nic: Nic, driver: NicDriver):
        self.config = config
        self.machine = machine
        self.allocators = allocators
        self.iommu = iommu
        self.dma_api = dma_api
        self.nic = nic
        self.driver = driver
        self._queues_ready = False

    @classmethod
    def build(cls, config: SystemConfig) -> "System":
        machine = Machine.build(cores=config.cores,
                                numa_nodes=min(config.numa_nodes,
                                               config.cores),
                                cost=config.cost, obs=config.obs,
                                faults=config.faults)
        allocators = KernelAllocators(machine)
        iommu = (None if config.scheme == "no-iommu"
                 else Iommu(machine, iotlb_capacity=config.iotlb_capacity))
        dma_api = create_dma_api(config.scheme, machine, iommu,
                                 NIC_DEVICE_ID, allocators,
                                 **config.scheme_kwargs)
        nic = Nic(device_id=NIC_DEVICE_ID, port=dma_api.port(),
                  num_queues=config.cores,
                  keep_frames=config.keep_frames)
        nic.faults = machine.faults
        driver = NicDriver(machine, allocators, dma_api, nic,
                           rx_ring_size=config.rx_ring_size,
                           tx_ring_size=config.tx_ring_size,
                           rx_buf_size=config.rx_buf_size,
                           use_copy_hints=config.use_copy_hints)
        return cls(config, machine, allocators, iommu, dma_api, nic, driver)

    # ------------------------------------------------------------------
    def setup_queues(self) -> None:
        """Bring up one queue per core, each on its own core (and node).

        Like :meth:`teardown_queues`, this reports to exposure only
        (:meth:`~repro.obs.context.Observability.exposure_only`): the
        other recorders attribute the traffic a row measures.  With
        nothing else recording, a captured setup takes the same
        one-pass ``dma_map_fresh`` as an uncaptured one, and each ring's
        maps reach exposure in one event."""
        if self._queues_ready:
            return
        with self.machine.obs.exposure_only():
            for qid in range(self.config.cores):
                self.driver.setup_queue(self.machine.core(qid), qid)
        self._queues_ready = True

    def teardown_queues(self) -> None:
        if not self._queues_ready:
            return
        with self.machine.obs.exposure_only():
            for qid in range(self.config.cores):
                self.driver.teardown_queue(self.machine.core(qid), qid)
        self._queues_ready = False

    @property
    def cost(self) -> CostModel:
        return self.machine.cost
