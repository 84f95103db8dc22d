"""Data-center substrate: machines, placements, fragmentation and constraints.

This subpackage models the cluster the VM rescheduling problem operates on:

* :mod:`repro.cluster.vm_types` — VM / PM flavor catalogs (Table 1, §5.4)
* :mod:`repro.cluster.machine` — ``VirtualMachine``, ``NumaNode``, ``PhysicalMachine``
  snapshots and the immutable ``VMRecord``s a state keeps
* :mod:`repro.cluster.state` — ``ClusterState`` placement bookkeeping
* :mod:`repro.cluster.soa` — ``ClusterArrays`` structure-of-arrays view, the
  one store of a cluster's state: the feasibility matrix and the move scores
  every planner reads
* :mod:`repro.cluster.fragmentation` — fragment-rate metrics over the arrays (§1, Eq. 8)
* :mod:`repro.cluster.constraints` — constraint setting and masks (Eq. 2–6, §5.4)
* :mod:`repro.cluster.migration` — migration plans and the live-migration cost model
* :mod:`repro.cluster.events` — cluster events and best-fit placement (Fig. 1, Fig. 5)
"""

from .constraints import (
    ConstraintChecker,
    ConstraintConfig,
    assign_anti_affinity_groups,
)
from .events import (
    EVENT_KINDS,
    ClusterEvent,
    best_fit_placement,
    landing_slots,
)
from .fragmentation import (
    DEFAULT_FRAGMENT_CORES,
    REWARD_SCALE,
    fragment_arrays,
    fragment_rate_arrays,
)
from .machine import BOTH_NUMAS, NumaNode, PhysicalMachine, VirtualMachine
from .migration import (
    Migration,
    MigrationPlan,
    PlanApplicationResult,
    apply_plan,
    migration_seconds,
    plan_cost,
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
    "fragment_arrays",
    "fragment_rate_arrays",
    "landing_slots",
    "migration_seconds",
    "plan_cost",
]
