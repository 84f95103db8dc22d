"""Data-center substrate: machines, placements, fragmentation and constraints.

This subpackage models the cluster the VM rescheduling problem operates on:

* :mod:`repro.cluster.vm_types` — VM / PM flavor catalogs (Table 1, §5.4)
* :mod:`repro.cluster.machine` — ``VirtualMachine``, ``NumaNode``, ``PhysicalMachine``
* :mod:`repro.cluster.state` — ``ClusterState`` placement bookkeeping
* :mod:`repro.cluster.soa` — ``ClusterArrays`` structure-of-arrays hot-path view
* :mod:`repro.cluster.fragmentation` — fragment-rate metrics (§1, Eq. 8)
* :mod:`repro.cluster.constraints` — feasibility checks and masks (Eq. 2–6, §5.4)
* :mod:`repro.cluster.migration` — migration plans and the live-migration cost model
* :mod:`repro.cluster.events` — cluster events and dynamic arrival/exit processes (Fig. 1, Fig. 5)
"""

from .constraints import (
    ConstraintChecker,
    ConstraintConfig,
    assign_anti_affinity_groups,
)
from .events import (
    EVENT_KINDS,
    ClusterEvent,
    EventGenerator,
    best_fit_placement,
    diurnal_rate_profile,
    sample_daily_changes,
)
from .fragmentation import (
    DEFAULT_FRAGMENT_CORES,
    REWARD_SCALE,
    cluster_cpu_fragment,
    fragment_rate,
    max_hostable_vms,
    memory_fragment_rate,
    mixed_objective,
    numa_cpu_fragment,
    pm_cpu_fragment,
    pm_fragment_score,
    pm_memory_fragment,
)
from .machine import BOTH_NUMAS, NumaNode, PhysicalMachine, VirtualMachine
from .migration import (
    LiveMigrationCostModel,
    Migration,
    MigrationPlan,
    PlanApplicationResult,
    apply_plan,
)
from .soa import ClusterArrays
from .state import ClusterState, Placement
from .vm_types import (
    DEFAULT_PM_TYPE,
    MEMORY_INTENSIVE_VM_TYPES,
    MULTI_RESOURCE_PM_TYPES,
    TABLE1_VM_TYPES,
    PMType,
    VMType,
    VMTypeCatalog,
)

__all__ = [
    "BOTH_NUMAS",
    "ClusterArrays",
    "ClusterEvent",
    "ClusterState",
    "ConstraintChecker",
    "ConstraintConfig",
    "DEFAULT_FRAGMENT_CORES",
    "DEFAULT_PM_TYPE",
    "EventGenerator",
    "LiveMigrationCostModel",
    "MEMORY_INTENSIVE_VM_TYPES",
    "MULTI_RESOURCE_PM_TYPES",
    "Migration",
    "MigrationPlan",
    "NumaNode",
    "PMType",
    "PhysicalMachine",
    "Placement",
    "PlanApplicationResult",
    "REWARD_SCALE",
    "TABLE1_VM_TYPES",
    "VMType",
    "VMTypeCatalog",
    "VirtualMachine",
    "apply_plan",
    "assign_anti_affinity_groups",
    "best_fit_placement",
    "cluster_cpu_fragment",
    "diurnal_rate_profile",
    "fragment_rate",
    "max_hostable_vms",
    "memory_fragment_rate",
    "mixed_objective",
    "numa_cpu_fragment",
    "pm_cpu_fragment",
    "pm_fragment_score",
    "pm_memory_fragment",
    "sample_daily_changes",
]
