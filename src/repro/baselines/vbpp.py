"""α-VBPP: vector-bin-packing generalized to rescheduling (§5.1).

The baseline divides the episode into ``MNL / alpha`` stages.  In each stage it
removes the ``alpha`` VMs whose departure reduces their source PM's fragment
the most (a stable argsort of
:meth:`~repro.cluster.soa.ClusterArrays.source_deltas`, ties to the lower VM
id), then treats them as newly arriving VMs and re-places them on a scratch
copy with a vector bin-packing heuristic (best-fit on the weighted CPU/memory
residual, following Panigrahy et al.'s norm-based scoring).  Re-placing a VM
on its original PM does not consume migration budget.  The stages stop early
once a stage moves no VM.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..cluster import ClusterState, MigrationPlan, Placement
from .base import Rescheduler
from .mip import order_migrations

#: Weight of the CPU dimension in the packing score; memory gets the rest.
_CPU_WEIGHT = 0.7


class AlphaVBPP(Rescheduler):
    """Stage-wise remove-and-repack rescheduler.

    Parameters
    ----------
    alpha:
        Number of VMs removed and re-packed per stage (the paper tunes this to
        10 on the Medium dataset).
    """

    name = "alpha-VBPP"

    def __init__(self, alpha: int = 10) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self._info: Dict = {}

    def _compute(self, state: ClusterState, migration_limit: int) -> MigrationPlan:
        plan = MigrationPlan()
        stages = max(migration_limit // self.alpha, 1)
        stages_run = 0
        while stages_run < stages and len(plan) < migration_limit:
            stages_run += 1
            if self._run_stage(state, plan, migration_limit - len(plan)) == 0:
                break
        self._info = {"stages_run": stages_run, "final_fragment_rate": state.fragment_rate()}
        return plan

    def _last_info(self) -> Dict:
        return dict(self._info)

    # ------------------------------------------------------------------ #
    def _run_stage(self, state: ClusterState, plan: MigrationPlan, budget: int) -> int:
        victims = self._select_victims(state, min(self.alpha, budget))
        if not victims:
            return 0
        # The repack removes all victims at once on a scratch copy, so its
        # moves are only *jointly* feasible; order_migrations linearizes them.
        # A move that does not fit ``state`` at its turn (a cyclic swap with no
        # buffer, a PM still hosting a group member, a pinned NUMA that a
        # skipped move left taken) is not emitted: migrate_vm is atomic, so the
        # victim stays put, costs no budget, and the plan replays strictly.
        assignment, numa_targets = self._repack(state, victims)
        moved = 0
        for migration in order_migrations(state, assignment, numa_targets):
            try:
                state.migrate_vm(migration.vm_id, migration.dest_pm_id, dest_numa_id=migration.dest_numa_id)
            except ValueError:
                continue
            plan.append(migration)
            moved += 1
        return moved

    def _repack(self, state: ClusterState, victims: List[int]) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Destination PM and NUMA of every victim that changes PM, re-placed in
        decreasing CPU order.  A victim that finds no room (earlier victims took
        its old spot) is pinned in place and the repack starts over without it.
        """
        pinned: Set[int] = set()
        while True:
            scratch = state.copy()
            original = {v: scratch.remove_vm(v) for v in victims if v not in pinned}
            assignment, numa_targets = {}, {}
            for vm_id in sorted(original, key=lambda v: -scratch.vms[v].cpu):
                placement = self._pack(scratch, vm_id)
                if placement is None:
                    pinned.add(vm_id)
                    break
                scratch.place_vm(vm_id, placement)
                if placement.pm_id != original[vm_id].pm_id:
                    assignment[vm_id] = placement.pm_id
                    numa_targets[vm_id] = placement.numa_id
            else:
                return assignment, numa_targets

    def _select_victims(self, state: ClusterState, count: int) -> List[int]:
        """The ``count`` placed VMs whose departure drops their source PM's
        fragment most."""
        soa = state.arrays()
        placed = np.flatnonzero(soa.vm_pm >= 0)
        drops = soa.source_deltas(placed, state.fragment_cores)
        return [int(vm_id) for vm_id in soa.vm_ids[placed[np.argsort(drops, kind="stable")[:count]]]]

    def _pack(self, state: ClusterState, vm_id: int) -> Optional[Placement]:
        """Norm-based best-fit over feasible (PM, NUMA) targets."""
        vm = state.vms[vm_id]
        best_placement = None
        best_score = None
        conflicts = state.conflicting_pm_ids(vm_id)
        for pm_id in state.sorted_pm_ids():
            if pm_id in conflicts:
                continue
            for numa_id in state.feasible_numas(vm_id, pm_id, honor_affinity=False):
                score = self._score(state, vm, pm_id, numa_id)
                if best_score is None or score < best_score:
                    best_score = score
                    best_placement = Placement(pm_id=pm_id, numa_id=numa_id)
        return best_placement

    def _score(self, state: ClusterState, vm, pm_id: int, numa_id: int) -> float:
        """Weighted residual norm after placement: smaller is a tighter fit."""
        pm = state.pms[pm_id]
        if numa_id == -1:
            residual_cpu = sum(n.free_cpu - vm.cpu_per_numa for n in pm.numas)
            residual_mem = sum(n.free_memory - vm.memory_per_numa for n in pm.numas)
            capacity_cpu = pm.cpu_capacity
            capacity_mem = pm.memory_capacity
        else:
            numa = pm.numas[numa_id]
            residual_cpu = numa.free_cpu - vm.cpu
            residual_mem = numa.free_memory - vm.memory
            capacity_cpu = numa.cpu_capacity
            capacity_mem = numa.memory_capacity
        cpu_term = residual_cpu / capacity_cpu
        mem_term = residual_mem / capacity_mem
        return _CPU_WEIGHT * cpu_term ** 2 + (1.0 - _CPU_WEIGHT) * mem_term ** 2
