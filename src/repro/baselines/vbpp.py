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

from ..cluster import ClusterState, MigrationPlan, Placement, landing_slots
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
            soa = scratch.arrays()
            for vm_id in sorted(original, key=lambda v: -soa.vm_cpu[soa.vm_row[v]]):
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
        """Norm-based best-fit: of the VM's :func:`landing_slots` (room, and
        no member of its anti-affinity group on the PM), the first in PM then
        NUMA order with the smallest weighted residual norm after placement
        (a tighter fit)."""
        fits, numas = landing_slots(state, state.vms[vm_id])
        candidates = np.flatnonzero(fits)
        if not candidates.size:
            return None
        soa = state.arrays()
        row = soa.vm_row[vm_id]
        residual_cpu = soa.numa_free_cpu - soa.vm_cpu_half[row]
        residual_mem = soa.numa_free_mem - soa.vm_mem_half[row]
        capacity_cpu, capacity_mem = soa.numa_cap_cpu, soa.numa_cap_mem
        if soa.vm_double[row]:
            residual_cpu, residual_mem, capacity_cpu, capacity_mem = (
                (pair[:, 0] + pair[:, 1])[:, None]
                for pair in (residual_cpu, residual_mem, capacity_cpu, capacity_mem)
            )
        cpu_terms = (residual_cpu / capacity_cpu).ravel()[candidates].tolist()
        mem_terms = (residual_mem / capacity_mem).ravel()[candidates].tolist()
        # Python floats: ``** 2`` is pow(), which can differ from a numpy
        # square in the last bit, and ties go to the first target.
        scores = [
            _CPU_WEIGHT * cpu_term ** 2 + (1.0 - _CPU_WEIGHT) * mem_term ** 2
            for cpu_term, mem_term in zip(cpu_terms, mem_terms)
        ]
        best = int(candidates[scores.index(min(scores))])
        return Placement(
            pm_id=int(soa.pm_ids[best // len(numas)]), numa_id=numas[best % len(numas)]
        )
