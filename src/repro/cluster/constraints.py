"""Constraint modelling for VM rescheduling.

The MIP formulation of §2.1 carries five families of constraints: per-NUMA CPU
capacity (Eq. 2), per-NUMA memory capacity (Eq. 3), exactly-one-PM placement
(Eq. 4), the migration number limit (Eq. 5) and the double-NUMA co-location
rule (Eq. 6).  Section 5.4 adds hard anti-affinity ("service") constraints.

This module provides a declarative description of the active constraint set
plus the vectorized feasibility masks the two-stage policy uses in stage 2
(mask out every PM that cannot host the selected VM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .machine import FEASIBILITY_EPS
from .state import ClusterState

#: The feasibility matrix is patched from the mutation journal while at most
#: one PM in this many was touched since it was built, and rebuilt otherwise.
#: Measured ``movable_vm_mask`` after one migration (two PMs touched), rebuild
#: vs patch: 8 PMs / 85 VMs 88 vs 108 µs, 12 PMs even (140 µs), 16 PMs / 179
#: VMs 209 vs 137 µs, 40 PMs / 335 VMs 733 vs 183 µs, 120 PMs / 1092 VMs
#: 5980 vs 440 µs.
_PATCH_PM_DIVISOR = 8


@dataclass
class ConstraintConfig:
    """Which constraints are active for a rescheduling task.

    Attributes
    ----------
    migration_limit:
        MNL — the maximum number of VMs migrated per rescheduling task (Eq. 5).
        The paper notes this is typically 2–3% of the VM count.
    honor_anti_affinity:
        Enforce hard anti-affinity groups (§5.4 "Service Constraints").
    allow_source_pm:
        Whether an action may "migrate" a VM back onto its own source PM.  The
        paper's action space always excludes the source PM.
    """

    migration_limit: int = 50
    honor_anti_affinity: bool = True
    allow_source_pm: bool = False

    def __post_init__(self) -> None:
        if self.migration_limit <= 0:
            raise ValueError("migration_limit (MNL) must be positive")


class ConstraintChecker:
    """The one legality rule under a :class:`ConstraintConfig`: the per-action
    check and the stage-2 masks.  A whole plan is checked by replaying it
    (:func:`~repro.cluster.migration.apply_plan`, ``skip_infeasible=False``)."""

    def __init__(self, config: Optional[ConstraintConfig] = None) -> None:
        self.config = config or ConstraintConfig()
        #: Single-entry memo for feasibility_matrix: (soa, key, version, matrix).
        self._matrix_cache = None

    # ------------------------------------------------------------------ #
    # Single-action feasibility
    # ------------------------------------------------------------------ #
    def migration_is_feasible(self, state: ClusterState, vm_id: int, dest_pm_id: int) -> bool:
        """Whether migrating ``vm_id`` to ``dest_pm_id`` satisfies all constraints."""
        vm = state.vms.get(vm_id)
        if vm is None or not vm.is_placed:
            return False
        if not self.config.allow_source_pm and dest_pm_id == vm.pm_id:
            return False
        if dest_pm_id not in state.pms:
            return False
        return state.can_host(
            vm_id, dest_pm_id, honor_affinity=self.config.honor_anti_affinity
        )

    # ------------------------------------------------------------------ #
    # Vectorized masks (the stage-2 PM mask of the two-stage framework)
    #
    # These operate on the structure-of-arrays view (ClusterState.arrays):
    # capacity, NUMA-count and anti-affinity feasibility are evaluated as
    # broadcast boolean algebra in one pass instead of nested Python loops.
    # The parity tests pin them against per-pair migration_is_feasible loops.
    # ------------------------------------------------------------------ #
    _EPS = FEASIBILITY_EPS

    def destination_mask(self, state: ClusterState, vm_id: int, pm_ids: Optional[Sequence[int]] = None) -> np.ndarray:
        """Boolean mask over PMs: True where the PM can receive ``vm_id``.

        Deliberately a standalone single-row computation (O(P) vector ops +
        O(V) group scan) rather than a gather from :meth:`feasibility_matrix`:
        search loops call it on freshly mutated states where the memoized
        matrix misses and a full V×P recompute per candidate would be far
        slower.  It must stay semantically identical to a matrix row — the
        parity tests pin all three implementations (this, the matrix, and a
        per-PM migration_is_feasible loop) together.
        """
        soa = state.arrays()
        vm = state.vms.get(vm_id)
        if vm is None or not vm.is_placed:
            size = soa.num_pms if pm_ids is None else len(list(pm_ids))
            return np.zeros(size, dtype=bool)
        eps = self._EPS
        if vm.numa_count == 2:
            mask = (
                (soa.numa_free_cpu + eps >= vm.cpu_per_numa)
                & (soa.numa_free_mem + eps >= vm.memory_per_numa)
            ).all(axis=1)
        else:
            mask = (
                (soa.numa_free_cpu + eps >= vm.cpu)
                & (soa.numa_free_mem + eps >= vm.memory)
            ).any(axis=1)
        if self.config.honor_anti_affinity and vm.anti_affinity_group is not None:
            group = vm.anti_affinity_group
            for other in state.vms.values():
                if other.vm_id != vm_id and other.is_placed and other.anti_affinity_group == group:
                    mask[soa.pm_row[other.pm_id]] = False
        if not self.config.allow_source_pm:
            source_row = soa.pm_row.get(vm.pm_id)
            if source_row is not None:
                mask[source_row] = False
        if pm_ids is None:
            return mask
        rows = np.fromiter(
            (soa.pm_row.get(pm_id, -1) for pm_id in pm_ids), dtype=np.int64
        )
        gathered = np.zeros(rows.shape[0], dtype=bool)
        known = rows >= 0
        gathered[known] = mask[rows[known]]
        return gathered

    def feasibility_matrix(self, state: ClusterState) -> np.ndarray:
        """Full ``(num_vms, num_pms)`` legality matrix over the sorted ids.

        Row *i* equals ``destination_mask(state, sorted_vm_ids[i])``: capacity,
        NUMA-count and anti-affinity constraints evaluated in one broadcast
        pass; unplaced VMs get all-False rows.  Baselines and search use this
        directly; :meth:`movable_vm_mask` is its row-wise ``any``.

        The matrix is memoized against the SoA view's mutation version (and
        the anti-affinity group assignment, which is re-read each call), so
        the several mask consumers of one env step share one pass, and after
        a mutation only the journalled rows and columns are recomputed.
        The public method returns a defensive copy; internal reductions use
        :meth:`_feasibility_matrix_cached` to avoid the per-call allocation.
        """
        return self._feasibility_matrix_cached(state).copy()

    def _feasibility_matrix_cached(self, state: ClusterState) -> np.ndarray:
        """The memoized matrix itself — treat as read-only.

        One matrix is kept per checker, valid for one SoA view (by identity),
        constraint-flag set and anti-affinity assignment.  When only the
        view's version moved, the journal names the PM and VM rows touched
        since: a cell depends on its VM's demand, group and host and on its
        PM's free capacity and hosted groups, so only the dirty PM columns
        (all VMs) and dirty VM rows (all PMs) are recomputed, in place.  A
        journal that no longer reaches back, another view (``state.copy()``,
        a structural change), reassigned groups, or too many touched PMs for
        the patch to pay (:data:`_PATCH_PM_DIVISOR`) rebuild every cell —
        through the same block function.
        """
        soa = state.arrays()
        vm_group = None
        group_count = 0
        signature = b""
        if self.config.honor_anti_affinity:
            vm_group, group_count = self._gather_groups(state, soa)
            signature = vm_group.tobytes()
        key = (self.config.honor_anti_affinity, self.config.allow_source_pm, signature)
        cache = self._matrix_cache
        reusable = cache is not None and cache[0] is soa and cache[1] == key
        if reusable and cache[2] == soa.version:
            return cache[3]
        host_counts = None
        if group_count:
            # (groups, num_pms): placed members of each group per PM.
            hosted = (vm_group >= 0) & (soa.vm_pm >= 0)
            host_counts = np.bincount(
                vm_group[hosted] * soa.num_pms + soa.vm_pm[hosted],
                minlength=group_count * soa.num_pms,
            ).reshape(group_count, soa.num_pms)
        everything = slice(None)
        matrix = None
        # Each journalled mutation dirties one PM (a migration: two).
        if reusable and (soa.version - cache[2]) * _PATCH_PM_DIVISOR <= soa.num_pms:
            dirty = soa.dirty_since(cache[2])
            if dirty is not None:
                vm_rows, pm_rows = dirty
                matrix = cache[3]
                matrix[:, pm_rows] = self._feasibility_block(
                    soa, everything, pm_rows, vm_group, host_counts
                )
                matrix[vm_rows] = self._feasibility_block(
                    soa, vm_rows, everything, vm_group, host_counts
                )
        if matrix is None:
            matrix = self._feasibility_block(soa, everything, everything, vm_group, host_counts)
        self._matrix_cache = (soa, key, soa.version, matrix)
        return matrix

    @staticmethod
    def _gather_groups(state: ClusterState, soa) -> tuple:
        """Dense anti-affinity group index per VM row (-1 = no group).

        Deliberately re-read from the VM objects each call — groups may be
        assigned after the SoA view was built.
        """
        group_index: Dict[int, int] = {}
        vm_group = np.full(soa.num_vms, -1, dtype=np.int64)
        for row, vm_id in enumerate(soa.vm_ids):
            group = state.vms[int(vm_id)].anti_affinity_group
            if group is not None:
                vm_group[row] = group_index.setdefault(group, len(group_index))
        return vm_group, len(group_index)

    def _feasibility_block(
        self,
        soa,
        vm_rows,
        pm_rows,
        vm_group: Optional[np.ndarray],
        host_counts: Optional[np.ndarray],
    ) -> np.ndarray:
        """Legality of ``vm_rows`` × ``pm_rows`` (SoA row index arrays, or
        ``slice(None)`` for all of them): capacity per NUMA count,
        anti-affinity and source-PM exclusion.  The whole matrix is the block
        of all rows and all columns."""
        eps = self._EPS
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

        # Block rows whose source PM is one of the block's columns, and which.
        column = np.full(soa.num_pms, -1, dtype=np.int64)
        column[pm_rows] = np.arange(block.shape[1])
        source_column = np.where(source >= 0, column[source], -1)
        at_home = np.flatnonzero(source_column >= 0)

        if host_counts is not None:
            group = vm_group[vm_rows]
            grouped = np.flatnonzero(group >= 0)
            conflicts = host_counts[:, pm_rows][group[grouped]]  # (Vg, P)
            # A VM does not conflict with itself on its own source PM.
            position = np.full(block.shape[0], -1, dtype=np.int64)
            position[grouped] = np.arange(len(grouped))
            own = at_home[group[at_home] >= 0]
            conflicts[position[own], source_column[own]] -= 1
            block[grouped] &= conflicts == 0

        if not self.config.allow_source_pm:
            block[at_home, source_column[at_home]] = False
        return block

    def movable_vm_mask(self, state: ClusterState, vm_ids: Optional[Sequence[int]] = None) -> np.ndarray:
        """Boolean mask over VMs: True where the VM has at least one destination."""
        soa = state.arrays()
        movable = self._feasibility_matrix_cached(state).any(axis=1)
        if vm_ids is None:
            return movable
        rows = np.fromiter((soa.vm_row[vm_id] for vm_id in vm_ids), dtype=np.int64)
        return movable[rows] if rows.size else np.zeros(0, dtype=bool)


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
