"""Physical machines, NUMA nodes and virtual machines.

These are the concrete resource-accounting objects manipulated by
:class:`repro.cluster.state.ClusterState`.  Each PM has exactly two NUMA nodes
(§2.1); a VM occupies either one NUMA or both NUMAs of a single PM, splitting
its request evenly in the double-NUMA case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from .vm_types import PMType, VMType

#: NUMA placement marker for a double-NUMA VM (occupies both NUMAs of its PM).
BOTH_NUMAS = -1

#: Shared tolerance for capacity feasibility comparisons.  Both feasibility
#: checks — object-based (``NumaNode.can_host``) and the vectorized matrix in
#: :mod:`repro.cluster.soa` — must use this same constant or masks
#: and mutations disagree at exact-fit boundaries.
FEASIBILITY_EPS = 1e-9


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

    def copy(self) -> "VirtualMachine":
        # Direct field snapshot (no dataclass __init__): copies sit on the
        # search/simulation hot path.  Keep in sync with the fields above.
        clone = object.__new__(VirtualMachine)
        clone.vm_id = self.vm_id
        clone.vm_type = self.vm_type
        clone.pm_id = self.pm_id
        clone.numa_id = self.numa_id
        clone.anti_affinity_group = self.anti_affinity_group
        return clone


@dataclass
class NumaNode:
    """One NUMA node of a physical machine with free-resource bookkeeping."""

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

    def can_host(self, cpu: float, memory: float) -> bool:
        eps = FEASIBILITY_EPS
        return self.free_cpu + eps >= cpu and self.free_memory + eps >= memory

    def allocate(self, vm_id: int, cpu: float, memory: float) -> None:
        if not self.can_host(cpu, memory):
            raise ValueError(
                f"NUMA ({self.pm_id},{self.numa_id}) cannot host VM {vm_id}: "
                f"needs cpu={cpu}/mem={memory}, free cpu={self.free_cpu}/mem={self.free_memory}"
            )
        if vm_id in self.vm_ids:
            raise ValueError(f"VM {vm_id} already allocated on NUMA ({self.pm_id},{self.numa_id})")
        self.free_cpu -= cpu
        self.free_memory -= memory
        self.vm_ids.add(vm_id)

    def release(self, vm_id: int, cpu: float, memory: float) -> None:
        if vm_id not in self.vm_ids:
            raise ValueError(f"VM {vm_id} is not allocated on NUMA ({self.pm_id},{self.numa_id})")
        self.free_cpu = min(self.free_cpu + cpu, self.cpu_capacity)
        self.free_memory = min(self.free_memory + memory, self.memory_capacity)
        self.vm_ids.discard(vm_id)

    def copy(self) -> "NumaNode":
        # Direct field snapshot (no dataclass __init__ / __post_init__
        # validation): copies sit on the search/simulation hot path.  Keep in
        # sync with the fields above.
        clone = object.__new__(NumaNode)
        clone.pm_id = self.pm_id
        clone.numa_id = self.numa_id
        clone.cpu_capacity = self.cpu_capacity
        clone.memory_capacity = self.memory_capacity
        clone.free_cpu = self.free_cpu
        clone.free_memory = self.free_memory
        clone.vm_ids = set(self.vm_ids)
        return clone


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
                for numa_id in range(self.pm_type.numa_count)
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

    def copy(self) -> "PhysicalMachine":
        # Direct field snapshot (no dataclass __init__ / __post_init__); keep
        # in sync with the fields above.
        clone = object.__new__(PhysicalMachine)
        clone.pm_id = self.pm_id
        clone.pm_type = self.pm_type
        clone.numas = [numa.copy() for numa in self.numas]
        return clone
