"""Physical machines, NUMA nodes and virtual machines as plain values.

A :class:`~repro.cluster.state.ClusterState` keeps its cluster in one store,
the SoA view (:class:`~repro.cluster.soa.ClusterArrays`); these classes only
carry machines in and out of it.  A :class:`VirtualMachine` or
:class:`PhysicalMachine` handed to ``ClusterState(...)``, ``add_vm`` or
``add_pm`` says what joins the cluster, and ``state.vms[id]`` /
``state.pms[id]`` build a fresh one from the arrays on every lookup — a
read-only snapshot for serialization, display and tests: writing its fields
changes nothing in the state.

Each PM has exactly two NUMA nodes (§2.1); a VM occupies either one NUMA or
both NUMAs of a single PM, splitting its request evenly in the double-NUMA
case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Set, Tuple, Union

from .vm_types import PMType, VMType

#: NUMA placement marker for a double-NUMA VM (occupies both NUMAs of its PM).
BOTH_NUMAS = -1

#: Tolerance of the one capacity comparison, :func:`repro.cluster.soa.has_room`,
#: which the feasibility matrix, the move scores and every placement check
#: share, so masks and mutations agree at exact-fit boundaries.
FEASIBILITY_EPS = 1e-9


class VMRecord(NamedTuple):
    """What a VM is, apart from where it runs: its flavor and anti-affinity
    group.  Immutable, so copies of a state share them."""

    vm_type: VMType
    anti_affinity_group: Optional[Union[int, str]]


@dataclass
class VirtualMachine:
    """A VM instance with its resource request and (optional) placement."""

    vm_id: int
    vm_type: VMType
    pm_id: Optional[int] = None
    numa_id: Optional[int] = None  # 0, 1 or BOTH_NUMAS
    anti_affinity_group: Optional[int] = None

    @property
    def cpu(self) -> int:
        return self.vm_type.cpu

    @property
    def memory(self) -> int:
        return self.vm_type.memory

    @property
    def numa_count(self) -> int:
        return self.vm_type.numa_count

    @property
    def cpu_per_numa(self) -> float:
        return self.vm_type.cpu_per_numa

    @property
    def memory_per_numa(self) -> float:
        return self.vm_type.memory_per_numa

    @property
    def is_placed(self) -> bool:
        return self.pm_id is not None

    def numa_ids_on_pm(self) -> Tuple[int, ...]:
        """The NUMA indices this VM occupies on its PM."""
        if not self.is_placed:
            raise RuntimeError(f"VM {self.vm_id} is not placed")
        if self.numa_id == BOTH_NUMAS:
            return (0, 1)
        return (int(self.numa_id),)


@dataclass
class NumaNode:
    """One NUMA node of a physical machine: capacity, free resources and the
    VMs it hosts."""

    pm_id: int
    numa_id: int
    cpu_capacity: float
    memory_capacity: float
    free_cpu: float = field(default=None)  # type: ignore[assignment]
    free_memory: float = field(default=None)  # type: ignore[assignment]
    vm_ids: Set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.cpu_capacity <= 0 or self.memory_capacity <= 0:
            raise ValueError("NUMA capacity must be positive")
        if self.free_cpu is None:
            self.free_cpu = float(self.cpu_capacity)
        if self.free_memory is None:
            self.free_memory = float(self.memory_capacity)

    @property
    def used_cpu(self) -> float:
        return self.cpu_capacity - self.free_cpu

    @property
    def cpu_utilization(self) -> float:
        return self.used_cpu / self.cpu_capacity


@dataclass
class PhysicalMachine:
    """A physical machine composed of two NUMA nodes."""

    pm_id: int
    pm_type: PMType
    numas: List[NumaNode] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.numas:
            self.numas = [
                NumaNode(
                    pm_id=self.pm_id,
                    numa_id=numa_id,
                    cpu_capacity=self.pm_type.cpu_per_numa,
                    memory_capacity=self.pm_type.memory_per_numa,
                )
                for numa_id in (0, 1)
            ]
        if len(self.numas) != 2:
            raise ValueError("a PM must have exactly two NUMA nodes")

    @property
    def cpu_capacity(self) -> float:
        return sum(numa.cpu_capacity for numa in self.numas)

    @property
    def memory_capacity(self) -> float:
        return sum(numa.memory_capacity for numa in self.numas)

    @property
    def free_cpu(self) -> float:
        return sum(numa.free_cpu for numa in self.numas)

    @property
    def free_memory(self) -> float:
        return sum(numa.free_memory for numa in self.numas)

    @property
    def cpu_utilization(self) -> float:
        return 1.0 - self.free_cpu / self.cpu_capacity

    @property
    def vm_ids(self) -> Set[int]:
        hosted: Set[int] = set()
        for numa in self.numas:
            hosted |= numa.vm_ids
        return hosted
