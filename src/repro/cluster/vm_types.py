"""VM and PM type catalogs.

Table 1 of the paper defines the seven VM types used in the main experiments
(1:2 CPU-to-memory ratio, single-NUMA up to 4xlarge, double-NUMA from 8xlarge).
Section 5.4 introduces the Multi-Resource cluster with two PM types and
memory-boosted VM variants whose CPU:memory ratio can reach 1:8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class VMType:
    """A virtual-machine flavor.

    Attributes
    ----------
    name:
        Flavor name, e.g. ``"4xlarge"``.
    cpu:
        Requested CPU cores for the whole VM.
    memory:
        Requested memory in GB for the whole VM.
    numa_count:
        Number of NUMA nodes the VM must be deployed on (1 or 2).  Double-NUMA
        VMs split their CPU and memory evenly across both NUMAs of one PM.
    """

    name: str
    cpu: int
    memory: int
    numa_count: int

    def __post_init__(self) -> None:
        if self.cpu <= 0 or self.memory <= 0:
            raise ValueError(f"VM type {self.name!r} must request positive resources")
        if self.numa_count not in (1, 2):
            raise ValueError(f"VM type {self.name!r} must use 1 or 2 NUMAs, got {self.numa_count}")
        if self.numa_count == 2 and (self.cpu % 2 or self.memory % 2):
            raise ValueError(
                f"double-NUMA VM type {self.name!r} must have even CPU and memory for an even split"
            )

    @property
    def cpu_per_numa(self) -> float:
        return self.cpu / self.numa_count

    @property
    def memory_per_numa(self) -> float:
        return self.memory / self.numa_count


@dataclass(frozen=True)
class PMType:
    """A physical-machine configuration: total capacity split evenly over the
    two NUMA nodes every PM of the paper's clusters has (§2.1)."""

    name: str
    cpu: int
    memory: int

    def __post_init__(self) -> None:
        if self.cpu <= 0 or self.memory <= 0:
            raise ValueError(f"PM type {self.name!r} must have positive capacity")
        if self.cpu % 2 or self.memory % 2:
            raise ValueError(f"PM type {self.name!r} capacity must split evenly across NUMAs")

    @property
    def cpu_per_numa(self) -> int:
        return self.cpu // 2

    @property
    def memory_per_numa(self) -> int:
        return self.memory // 2


# --------------------------------------------------------------------------- #
# Table 1: the seven VM types of the main experiments
# --------------------------------------------------------------------------- #
TABLE1_VM_TYPES: Tuple[VMType, ...] = (
    VMType("large", cpu=2, memory=4, numa_count=1),
    VMType("xlarge", cpu=4, memory=8, numa_count=1),
    VMType("2xlarge", cpu=8, memory=16, numa_count=1),
    VMType("4xlarge", cpu=16, memory=32, numa_count=1),
    VMType("8xlarge", cpu=32, memory=64, numa_count=2),
    VMType("16xlarge", cpu=64, memory=128, numa_count=2),
    VMType("22xlarge", cpu=88, memory=176, numa_count=2),
)

# --------------------------------------------------------------------------- #
# Section 5.4: Multi-Resource cluster types
# --------------------------------------------------------------------------- #
MULTI_RESOURCE_PM_TYPES: Tuple[PMType, ...] = (
    PMType("pm-88c-256g", cpu=88, memory=256),
    PMType("pm-128c-364g", cpu=128, memory=364),
)

# Memory-intensive variants: same CPU tiers but CPU:memory ratios up to 1:8.
MEMORY_INTENSIVE_VM_TYPES: Tuple[VMType, ...] = (
    VMType("large-mem4", cpu=2, memory=8, numa_count=1),
    VMType("large-mem8", cpu=2, memory=16, numa_count=1),
    VMType("xlarge-mem4", cpu=4, memory=16, numa_count=1),
    VMType("xlarge-mem8", cpu=4, memory=32, numa_count=1),
    VMType("2xlarge-mem4", cpu=8, memory=32, numa_count=1),
    VMType("4xlarge-mem4", cpu=16, memory=64, numa_count=1),
    VMType("8xlarge-mem4", cpu=32, memory=128, numa_count=2),
)

# Default PM type for the Medium / Large clusters (one homogeneous flavor).
DEFAULT_PM_TYPE = PMType("pm-128c-512g", cpu=128, memory=512)


class VMTypeCatalog:
    """Lookup table of VM types by name, with sampling weights."""

    def __init__(self, vm_types: Tuple[VMType, ...] = TABLE1_VM_TYPES) -> None:
        if not vm_types:
            raise ValueError("catalog requires at least one VM type")
        self._by_name: Dict[str, VMType] = {}
        for vm_type in vm_types:
            if vm_type.name in self._by_name:
                raise ValueError(f"duplicate VM type name {vm_type.name!r}")
            self._by_name[vm_type.name] = vm_type

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self):
        return iter(self._by_name.values())

    def get(self, name: str) -> VMType:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown VM type {name!r}; known types: {sorted(self._by_name)}")

    def names(self) -> List[str]:
        return list(self._by_name)

    @classmethod
    def main(cls) -> "VMTypeCatalog":
        """The Table 1 catalog used by the Medium and Large clusters."""
        return cls(TABLE1_VM_TYPES)

    @classmethod
    def multi_resource(cls) -> "VMTypeCatalog":
        """The Multi-Resource catalog of §5.4 (regular + memory-intensive types)."""
        return cls(TABLE1_VM_TYPES + MEMORY_INTENSIVE_VM_TYPES)
