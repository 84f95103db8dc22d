"""α-VBPP: vector-bin-packing generalized to rescheduling (§5.1).

The baseline divides the episode into ``MNL / alpha`` stages.  In each stage it
greedily removes the ``alpha`` VMs whose removal reduces fragments the most,
then treats them as newly arriving VMs and re-places them with a vector
bin-packing heuristic (best-fit on the weighted CPU/memory residual, following
Panigrahy et al.'s norm-based scoring).  Re-placing a VM on its original PM
does not consume migration budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cluster import ClusterState, MigrationPlan, Placement
from .base import Rescheduler
from .mip import order_migrations


class AlphaVBPP(Rescheduler):
    """Stage-wise remove-and-repack rescheduler.

    Parameters
    ----------
    alpha:
        Number of VMs removed and re-packed per stage (the paper tunes this to
        10 on the Medium dataset).
    cpu_weight:
        Weight of the CPU dimension in the packing score; memory gets
        ``1 - cpu_weight``.
    """

    name = "alpha-VBPP"

    def __init__(
        self,
        alpha: int = 10,
        cpu_weight: float = 0.7,
    ) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= cpu_weight <= 1.0:
            raise ValueError("cpu_weight must be in [0, 1]")
        self.alpha = alpha
        self.cpu_weight = cpu_weight
        self._info: Dict = {}

    def _compute(self, state: ClusterState, migration_limit: int) -> MigrationPlan:
        plan = MigrationPlan()
        stages = max(migration_limit // self.alpha, 1)
        moved_total = 0
        for _ in range(stages):
            if moved_total >= migration_limit:
                break
            budget = migration_limit - moved_total
            moved = self._run_stage(state, plan, budget)
            moved_total += moved
            if moved == 0:
                break
        self._info = {"stages_run": stages, "final_fragment_rate": state.fragment_rate()}
        return plan

    def _last_info(self) -> Dict:
        return dict(self._info)

    # ------------------------------------------------------------------ #
    def _run_stage(self, state: ClusterState, plan: MigrationPlan, budget: int) -> int:
        victims = self._select_victims(state, min(self.alpha, budget))
        if not victims:
            return 0
        # The packer works unpack-then-repack on a scratch copy: all victims
        # are removed at once so it sees the freed capacity, then re-placed.
        # The resulting moves are only *jointly* feasible — emitted naively,
        # one victim's destination may still be occupied by another victim
        # that moves later in the list — so order_migrations linearizes the
        # final assignment into one-at-a-time moves.
        scratch = state.copy()
        original: Dict[int, Placement] = {}
        for vm_id in victims:
            original[vm_id] = scratch.remove_vm(vm_id)
        assignment: Dict[int, int] = {}
        numa_targets: Dict[int, int] = {}
        # Re-place in decreasing CPU order (first-fit decreasing flavour).
        for vm_id in sorted(victims, key=lambda v: -scratch.vms[v].cpu):
            placement = self._pack(scratch, vm_id)
            if placement is None:
                placement = original[vm_id]
            scratch.place_vm(vm_id, placement, honor_affinity=False)
            if placement.pm_id != original[vm_id].pm_id:
                assignment[vm_id] = placement.pm_id
                numa_targets[vm_id] = placement.numa_id
        # order_migrations appends the moves it could not linearize (cyclic
        # swaps with no free buffer) after the feasible ones.  Those are not
        # emitted: the plan must replay strictly, so their victims stay where
        # they are in ``state`` and cost no budget.
        moved = 0
        for migration in order_migrations(state, assignment, numa_targets):
            if not state.can_host(migration.vm_id, migration.dest_pm_id, honor_affinity=False):
                continue
            state.migrate_vm(
                migration.vm_id,
                migration.dest_pm_id,
                dest_numa_id=migration.dest_numa_id,
                honor_affinity=False,
            )
            plan.append(migration)
            moved += 1
        return moved

    def _select_victims(self, state: ClusterState, count: int) -> List[int]:
        """VMs on the most fragmented PMs whose removal helps the most."""
        scored: List[Tuple[float, int]] = []
        for vm_id in state.sorted_vm_ids():
            vm = state.vms[vm_id]
            if not vm.is_placed:
                continue
            source_pm = vm.pm_id
            before = state.pm_fragment(source_pm)
            placement = state.remove_vm(vm_id)
            after = state.pm_fragment(source_pm)
            state.place_vm(vm_id, placement, honor_affinity=False)
            scored.append((after - before, vm_id))
        scored.sort()
        return [vm_id for _, vm_id in scored[:count]]

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
        return self.cpu_weight * cpu_term ** 2 + (1.0 - self.cpu_weight) * mem_term ** 2
