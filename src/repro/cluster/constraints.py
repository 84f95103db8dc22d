"""Constraint modelling for VM rescheduling.

The MIP formulation of §2.1 carries five families of constraints: per-NUMA CPU
capacity (Eq. 2), per-NUMA memory capacity (Eq. 3), exactly-one-PM placement
(Eq. 4), the migration number limit (Eq. 5) and the double-NUMA co-location
rule (Eq. 6).  Section 5.4 adds hard anti-affinity ("service") constraints.

The one legality rule the two-stage policy masks with in stage 2 (mask out
every PM that cannot host the selected VM) lives on the SoA view:
:meth:`~repro.cluster.soa.ClusterArrays.feasibility`, a memoized ``(V, P)``
matrix that every mask, the env's action check and the search baselines read.
This module holds the per-task setting (:class:`ConstraintConfig`), the
stateless mask accessors over that matrix (:class:`ConstraintChecker`) and the
§5.4 group synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .state import ClusterState


@dataclass
class ConstraintConfig:
    """The per-task constraint setting of a rescheduling task.

    Capacity, NUMA placement and anti-affinity always hold, and a VM's source
    PM is never a destination (the paper's action space).

    Attributes
    ----------
    migration_limit:
        MNL — the maximum number of VMs migrated per rescheduling task (Eq. 5).
        The paper notes this is typically 2–3% of the VM count.
    """

    migration_limit: int = 50

    def __post_init__(self) -> None:
        if self.migration_limit <= 0:
            raise ValueError("migration_limit (MNL) must be positive")


class ConstraintChecker:
    """The per-action check and the stage-2 masks, read from the state's one
    memoized feasibility matrix (:meth:`ClusterArrays.feasibility`).  A whole
    plan is checked by replaying it
    (:func:`~repro.cluster.migration.apply_plan`, ``skip_infeasible=False``).

    The checker holds nothing: every checker of a state shares the view's memo.
    """

    def __init__(self, config: Optional[ConstraintConfig] = None) -> None:
        """``config`` is accepted for existing ``ConstraintChecker(config)``
        call sites and not stored: the rule reads none of it (the MNL bounds
        episodes, not single moves)."""

    def migration_is_feasible(self, state: ClusterState, vm_id: int, dest_pm_id: int) -> bool:
        """Whether migrating ``vm_id`` to ``dest_pm_id`` satisfies all constraints."""
        soa = state.arrays()
        row = soa.vm_row.get(vm_id)
        column = soa.pm_row.get(dest_pm_id)
        if row is None or column is None:
            return False
        return bool(soa.feasibility()[row, column])

    def destination_mask(self, state: ClusterState, vm_id: int) -> np.ndarray:
        """Boolean mask over PMs: True where the PM can receive ``vm_id``."""
        soa = state.arrays()
        row = soa.vm_row.get(vm_id)
        if row is None:
            return np.zeros(soa.num_pms, dtype=bool)
        return soa.feasibility()[row].copy()

    def movable_vm_mask(self, state: ClusterState) -> np.ndarray:
        """Boolean mask over VMs: True where the VM has at least one destination."""
        return state.arrays().feasibility().any(axis=1)

    def feasibility_matrix(self, state: ClusterState) -> np.ndarray:
        """Full ``(num_vms, num_pms)`` legality matrix over the sorted ids.

        Capacity, NUMA-count and anti-affinity constraints are evaluated as
        broadcast boolean algebra over the structure-of-arrays view
        (:meth:`ClusterState.arrays`); the source PM and unplaced VMs are
        never legal.  The parity tests pin it against per-pair loops over
        the machine snapshots.  Returns a defensive copy.
        """
        return state.arrays().feasibility().copy()


def assign_anti_affinity_groups(
    state: ClusterState,
    group_count: int,
    vms_per_group: int,
    rng: np.random.Generator,
) -> Dict[int, List[int]]:
    """Synthesize anti-affinity groups on an existing cluster (§5.4, Table 2).

    ``group_count`` groups of ``vms_per_group`` VMs are sampled without
    replacement; members of a group may not share a PM in any *new* placement
    (existing co-locations are left untouched, as the constraint only applies
    to rescheduling decisions).  Returns the mapping group id → VM ids.
    """
    if group_count < 0 or vms_per_group < 2:
        raise ValueError("need group_count >= 0 and vms_per_group >= 2")
    vm_ids = np.array(state.sorted_vm_ids(), dtype=int)
    needed = group_count * vms_per_group
    if needed > len(vm_ids):
        raise ValueError(f"cannot form {group_count} groups of {vms_per_group} from {len(vm_ids)} VMs")
    chosen = rng.choice(vm_ids, size=needed, replace=False)
    groups: Dict[int, List[int]] = {}
    for group_id in range(group_count):
        members = chosen[group_id * vms_per_group : (group_id + 1) * vms_per_group]
        groups[group_id] = [int(vm_id) for vm_id in members]
        for vm_id in members:
            state.set_anti_affinity_group(int(vm_id), group_id)
    return groups
