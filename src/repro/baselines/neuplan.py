"""NeuPlan-style hybrid baseline (Zhu et al., SIGCOMM '21, adapted to VMR).

NeuPlan runs in two stages (§5.1): an RL agent generates the first few
migrations to prune the search space, then an exact MIP solves the remaining
budget.  A relax factor β bounds how much of the problem the MIP may explore
(here: how many candidate VMs are handed to the MIP), which is what lets
NeuPlan meet the latency limit at the cost of solution quality for large MNLs.

The RL prefix accepts any policy implementing the planning interface; by
default a greedy fragment-reduction policy stands in so the baseline can run
without a training phase, and a trained :class:`repro.core.agent.VMR2LAgent`
can be plugged in for the learned variant.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cluster import ClusterState, MigrationPlan
from .base import Rescheduler
from .heuristic import FilteringHeuristic
from .mip import MIPRescheduler


class NeuPlanRescheduler(Rescheduler):
    """RL-prefix + MIP-suffix hybrid."""

    name = "NeuPlan"

    def __init__(
        self,
        prefix_planner: Optional[Rescheduler] = None,
        prefix_fraction: float = 0.3,
        relax_factor: int = 30,
        time_limit_s: Optional[float] = 5.0,
    ) -> None:
        if not 0.0 <= prefix_fraction < 1.0:
            raise ValueError("prefix_fraction must be in [0, 1)")
        if relax_factor <= 0:
            raise ValueError("relax_factor (beta) must be positive")
        self.prefix_planner = prefix_planner or FilteringHeuristic()
        self.prefix_fraction = prefix_fraction
        self.relax_factor = relax_factor
        self.time_limit_s = time_limit_s
        self._info: Dict = {}

    def _compute(self, state: ClusterState, migration_limit: int) -> MigrationPlan:
        prefix_budget = int(migration_limit * self.prefix_fraction)
        plan = MigrationPlan()

        # Stage 1: RL / heuristic prefix prunes the search space.
        if prefix_budget > 0:
            prefix_result = self.prefix_planner.compute_plan(state, prefix_budget)
            for migration in prefix_result.plan:
                if state.can_host(migration.vm_id, migration.dest_pm_id, honor_affinity=True):
                    state.migrate_vm(migration.vm_id, migration.dest_pm_id)
                    plan.append(migration)

        # Stage 2: exact MIP on a candidate set bounded by the relax factor.
        remaining_budget = migration_limit - len(plan)
        if remaining_budget > 0:
            candidates = self._candidate_vms(state, self.relax_factor)
            solver = MIPRescheduler(
                time_limit_s=self.time_limit_s,
                candidate_vms=candidates,
            )
            suffix_result = solver.compute_plan(state, remaining_budget)
            for migration in suffix_result.plan:
                plan.append(migration)
            self._info = {
                "prefix_migrations": len(plan) - len(suffix_result.plan),
                "suffix_migrations": len(suffix_result.plan),
                "candidate_vms": len(candidates),
                "mip_status": suffix_result.info.get("status"),
            }
        return plan

    def _last_info(self) -> Dict:
        return dict(self._info)

    @staticmethod
    def _candidate_vms(state: ClusterState, relax_factor: int) -> list:
        """Pick the β VMs sitting on the most fragmented PMs."""
        soa = state.arrays()
        fragment = soa.numa_free_cpu % state.fragment_cores
        pm_fragment = (fragment[:, 0] + fragment[:, 1]).tolist()
        scored = [
            (pm_fragment[column], vm_id)
            for vm_id, column in zip(state.sorted_vm_ids(), soa.vm_pm.tolist())
            if column >= 0
        ]
        scored.sort(key=lambda item: -item[0])
        return [vm_id for _, vm_id in scored[:relax_factor]]
