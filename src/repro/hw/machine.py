"""Machine model: cores, NUMA nodes, physical memory, cost model.

The default geometry mirrors the paper's testbed (§6): a dual-socket
2.4 GHz Haswell with 8 cores per socket (hyperthreading disabled) and one
NUMA domain per socket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigurationError
from repro.faults.injector import NULL_FAULTS
from repro.hw.cpu import Core
from repro.hw.memory import PhysicalMemory
from repro.obs.context import NULL_OBS, Observability
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel


@dataclass
class NumaNode:
    """One NUMA domain: a set of cores plus a physical-memory region."""

    nid: int
    cores: List[Core] = field(default_factory=list)


class Machine:
    """The simulated host: topology plus shared cost model.

    Use :meth:`build` for the common case::

        machine = Machine.build(cores=16, numa_nodes=2)
    """

    def __init__(self, cores: List[Core], nodes: List[NumaNode],
                 memory: PhysicalMemory, cost: CostModel,
                 obs: Observability | None = None, faults=None):
        if not cores:
            raise ConfigurationError("machine needs at least one core")
        self.cores = cores
        self.nodes = nodes
        self.memory = memory
        self.cost = cost
        #: Observability context every component built on this machine
        #: shares.  Disabled (NULL_OBS) by default — see repro.obs.
        self.obs = obs if obs is not None else NULL_OBS
        #: Fault injector shared the same way (NULL_FAULTS by default) —
        #: see repro.faults.  It reports its fires to this machine's
        #: context.
        self.faults = faults if faults is not None else NULL_FAULTS
        if faults is not None:
            faults.obs = self.obs

    @classmethod
    def build(cls, cores: int = 16, numa_nodes: int = 2,
              cost: CostModel | None = None,
              obs: Observability | None = None,
              faults=None) -> "Machine":
        """Construct a machine with ``cores`` spread evenly over ``numa_nodes``."""
        if cores < 1:
            raise ConfigurationError(f"invalid core count: {cores}")
        if numa_nodes < 1 or numa_nodes > cores:
            raise ConfigurationError(
                f"invalid NUMA node count {numa_nodes} for {cores} cores"
            )
        cost = cost if cost is not None else DEFAULT_COST_MODEL
        nodes = [NumaNode(nid) for nid in range(numa_nodes)]
        core_objs: List[Core] = []
        for cid in range(cores):
            # Block distribution, like the paper's machine: cores 0..7 on
            # socket 0, cores 8..15 on socket 1.
            nid = min(cid * numa_nodes // cores, numa_nodes - 1)
            core = Core(cid=cid, numa_node=nid)
            core_objs.append(core)
            nodes[nid].cores.append(core)
        memory = PhysicalMemory(num_nodes=numa_nodes)
        return cls(core_objs, nodes, memory, cost, obs=obs, faults=faults)

    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def core(self, cid: int) -> Core:
        return self.cores[cid]

    def node_of_core(self, cid: int) -> int:
        return self.cores[cid].numa_node

    def wall_clock(self) -> int:
        """Latest local clock across all cores (the run's wall time)."""
        return max(core.now for core in self.cores)

    def sync_clocks(self, when: int | None = None) -> int:
        """Advance every core (idling) to a common instant; returns it."""
        target = when if when is not None else self.wall_clock()
        for core in self.cores:
            core.advance_to(target)
        return target

    def reset_accounting(self) -> None:
        """Clear busy-cycle accounting on all cores (clocks keep running)."""
        for core in self.cores:
            core.reset_accounting()
