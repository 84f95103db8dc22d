"""Constraint modelling for VM rescheduling.

The MIP formulation of §2.1 carries five families of constraints: per-NUMA CPU
capacity (Eq. 2), per-NUMA memory capacity (Eq. 3), exactly-one-PM placement
(Eq. 4), the migration number limit (Eq. 5) and the double-NUMA co-location
rule (Eq. 6).  Section 5.4 adds hard anti-affinity ("service") constraints.

This module holds the one legality rule the two-stage policy masks with in
stage 2 (mask out every PM that cannot host the selected VM): a vectorized
``(num_vms, num_pms)`` feasibility matrix that every mask and the env's action
check read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .machine import FEASIBILITY_EPS
from .state import ClusterState

#: The feasibility matrix is patched in place while at most one PM in this
#: many can have been touched since it was built, and rebuilt otherwise.
#: Measured ``movable_vm_mask`` after one migration (two PMs touched), rebuild
#: vs patch: 8 PMs / 85 VMs 88 vs 108 µs, 12 PMs even (140 µs), 16 PMs / 179
#: VMs 209 vs 137 µs, 40 PMs / 335 VMs 733 vs 183 µs, 120 PMs / 1092 VMs
#: 5980 vs 440 µs.
_PATCH_PM_DIVISOR = 8


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
    """The one legality rule: the per-action check and the stage-2 masks all
    read one memoized feasibility matrix.  A whole plan is checked by
    replaying it (:func:`~repro.cluster.migration.apply_plan`,
    ``skip_infeasible=False``)."""

    def __init__(self, config: Optional[ConstraintConfig] = None) -> None:
        # ``config`` is accepted for existing ``ConstraintChecker(config)``
        # call sites and not stored: the rule reads none of it (the MNL
        # bounds episodes, not single moves).
        #: Single-entry memo for feasibility_matrix: (soa, version, matrix,
        #: the soa.snapshot() it was computed from).
        self._matrix_cache = None

    def migration_is_feasible(self, state: ClusterState, vm_id: int, dest_pm_id: int) -> bool:
        """Whether migrating ``vm_id`` to ``dest_pm_id`` satisfies all constraints."""
        soa = state.arrays()
        row = soa.vm_row.get(vm_id)
        column = soa.pm_row.get(dest_pm_id)
        if row is None or column is None:
            return False
        return bool(self._feasibility_matrix_cached(state)[row, column])

    def destination_mask(self, state: ClusterState, vm_id: int) -> np.ndarray:
        """Boolean mask over PMs: True where the PM can receive ``vm_id``."""
        soa = state.arrays()
        row = soa.vm_row.get(vm_id)
        if row is None:
            return np.zeros(soa.num_pms, dtype=bool)
        return self._feasibility_matrix_cached(state)[row].copy()

    def movable_vm_mask(self, state: ClusterState) -> np.ndarray:
        """Boolean mask over VMs: True where the VM has at least one destination."""
        return self._feasibility_matrix_cached(state).any(axis=1)

    def feasibility_matrix(self, state: ClusterState) -> np.ndarray:
        """Full ``(num_vms, num_pms)`` legality matrix over the sorted ids.

        Capacity, NUMA-count and anti-affinity constraints are evaluated as
        broadcast boolean algebra over the structure-of-arrays view
        (:meth:`ClusterState.arrays`); the source PM and unplaced VMs are
        never legal.  The parity tests pin it against the object path
        (``state.can_host`` per PM).  Returns a defensive copy.
        """
        return self._feasibility_matrix_cached(state).copy()

    def _feasibility_matrix_cached(self, state: ClusterState) -> np.ndarray:
        """The memoized matrix itself — treat as read-only.

        One matrix is kept per checker, valid for one SoA view (by identity)
        and version, so the several mask consumers of one env step share one
        pass.  When only the view's version moved, the view's diff against
        the memo's snapshot names the moved VM rows and dirty PM columns: a
        cell depends on its VM's demand, group and host and on its PM's free
        capacity and hosted groups, so only those columns (all VMs) and rows
        (all PMs) are recomputed, in place.  Another view (``state.copy()``, a
        structural change or a group assignment), or too many mutations for
        the patch to pay (:data:`_PATCH_PM_DIVISOR`) rebuild every cell —
        through the same block function.
        """
        soa = state.arrays()
        cache = self._matrix_cache
        reusable = cache is not None and cache[0] is soa
        if reusable and cache[1] == soa.version:
            return cache[2]
        host_counts = None
        group_count = int(soa.vm_group.max(initial=-1)) + 1
        if group_count:
            # (groups, num_pms): placed members of each group per PM.
            hosted = (soa.vm_group >= 0) & (soa.vm_pm >= 0)
            host_counts = np.bincount(
                soa.vm_group[hosted] * soa.num_pms + soa.vm_pm[hosted],
                minlength=group_count * soa.num_pms,
            ).reshape(group_count, soa.num_pms)
        everything = slice(None)
        # Each mutation dirties at most one PM (a migration: two).
        if reusable and (soa.version - cache[1]) * _PATCH_PM_DIVISOR <= soa.num_pms:
            vm_rows, pm_rows = soa.changed_since(cache[3])
            matrix = cache[2]
            matrix[:, pm_rows] = self._feasibility_block(soa, everything, pm_rows, host_counts)
            matrix[vm_rows] = self._feasibility_block(soa, vm_rows, everything, host_counts)
        else:
            matrix = self._feasibility_block(soa, everything, everything, host_counts)
        self._matrix_cache = (soa, soa.version, matrix, soa.snapshot())
        return matrix

    @staticmethod
    def _feasibility_block(soa, vm_rows, pm_rows, host_counts: Optional[np.ndarray]) -> np.ndarray:
        """Legality of ``vm_rows`` × ``pm_rows`` (SoA row index arrays, or
        ``slice(None)`` for all of them): capacity per NUMA count, anti-affinity
        and source-PM exclusion.  The whole matrix is the block of all rows and
        all columns."""
        eps = FEASIBILITY_EPS
        free_cpu = soa.numa_free_cpu[pm_rows][None, :, :]  # (1, P, 2)
        free_mem = soa.numa_free_mem[pm_rows][None, :, :]
        fits_single = (
            (free_cpu + eps >= soa.vm_cpu[vm_rows][:, None, None])
            & (free_mem + eps >= soa.vm_mem[vm_rows][:, None, None])
        ).any(axis=2)
        fits_double = (
            (free_cpu + eps >= soa.vm_cpu_half[vm_rows][:, None, None])
            & (free_mem + eps >= soa.vm_mem_half[vm_rows][:, None, None])
        ).all(axis=2)
        block = np.where(soa.vm_double[vm_rows][:, None], fits_double, fits_single)

        source = soa.vm_pm[vm_rows]
        block[source < 0] = False  # unplaced VMs have no legal migration

        if host_counts is not None:
            # Any placed member of the VM's group rules a PM out; the VM's own
            # count sits on its source PM, which is excluded below anyway.
            group = soa.vm_group[vm_rows]
            grouped = np.flatnonzero(group >= 0)
            block[grouped] &= host_counts[:, pm_rows][group[grouped]] == 0

        # The source PM is never a destination: find it among the block's columns.
        column = np.full(soa.num_pms, -1, dtype=np.int64)
        column[pm_rows] = np.arange(block.shape[1])
        source_column = np.where(source >= 0, column[source], -1)
        at_home = np.flatnonzero(source_column >= 0)
        block[at_home, source_column[at_home]] = False
        return block


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
            # Through the copy-on-write layer: the VM objects may be shared
            # with copies of this state.
            state.set_anti_affinity_group(int(vm_id), group_id)
    return groups
