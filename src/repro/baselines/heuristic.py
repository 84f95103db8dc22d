"""The filtering-based heuristic algorithm (HA) used in production (§2.1).

The heuristic repeats two stages until the migration limit is reached or no
migration improves the objective:

1. **Filtering** — for every movable VM, compute the change in total fragment
   if the VM were removed from its source PM; keep the VM whose removal lowers
   the fragment most.
2. **Scoring** — for every PM that can host that VM, compute the change in
   total fragment if the VM landed there; greedily pick the PM with the
   largest drop.

Because every migration keeps the total free CPU constant, minimizing the
total fragment is equivalent to minimizing the fragment *rate*, so the
heuristic works on raw fragment sizes (cheaper to evaluate locally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..cluster import ClusterState, ConstraintChecker, Migration, MigrationPlan
from .base import Rescheduler


@dataclass
class _Candidate:
    vm_id: int
    dest_pm_id: int
    dest_numa_id: int
    total_delta: float


class FilteringHeuristic(Rescheduler):
    """Greedy filtering + scoring heuristic (the paper's HA baseline).

    Parameters
    ----------
    allow_zero_gain:
        If False (default) the heuristic stops as soon as no migration strictly
        reduces the fragment, matching the behaviour in Fig. 4 where HA stops
        finding useful VMs after ~25 migrations.
    """

    name = "HA"

    def __init__(
        self,
        allow_zero_gain: bool = False,
    ) -> None:
        self.allow_zero_gain = allow_zero_gain
        self._info: Dict = {}

    def _compute(self, state: ClusterState, migration_limit: int) -> MigrationPlan:
        plan = MigrationPlan()
        stalled_reason = "migration_limit"
        for _ in range(migration_limit):
            candidate = self._best_candidate(state)
            if candidate is None:
                stalled_reason = "no_candidate"
                break
            if candidate.total_delta >= 0 and not self.allow_zero_gain:
                stalled_reason = "no_improvement"
                break
            state.migrate_vm(
                candidate.vm_id,
                candidate.dest_pm_id,
                dest_numa_id=candidate.dest_numa_id,
            )
            plan.append(Migration(candidate.vm_id, candidate.dest_pm_id, candidate.dest_numa_id))
        self._info = {"stop_reason": stalled_reason, "final_fragment_rate": state.fragment_rate()}
        return plan

    def _last_info(self) -> Dict:
        return dict(self._info)

    # ------------------------------------------------------------------ #
    def _best_candidate(self, state: ClusterState) -> Optional[_Candidate]:
        vm_id = self._filter_vm(state)
        if vm_id is None:
            return None
        return self._score_destinations(state, vm_id)

    def _filter_vm(self, state: ClusterState) -> Optional[int]:
        """Filtering stage: the VM whose removal drops the source fragment most.

        Only VMs with a legal destination compete; the matrix is read once,
        before the loop's remove/place probes (each puts the VM back)."""
        best_vm = None
        best_drop = None
        movable = ConstraintChecker().movable_vm_mask(state)
        for row, vm_id in enumerate(state.sorted_vm_ids()):
            if not movable[row]:
                continue
            source_pm = state.vms[vm_id].pm_id
            before = state.pm_fragment(source_pm)
            placement = state.remove_vm(vm_id)
            after = state.pm_fragment(source_pm)
            state.place_vm(vm_id, placement, honor_affinity=False)
            drop = after - before  # negative means removal reduces the fragment
            if best_drop is None or drop < best_drop:
                best_drop = drop
                best_vm = vm_id
        return best_vm

    def _score_destinations(self, state: ClusterState, vm_id: int) -> Optional[_Candidate]:
        """Scoring stage: the destination PM with the largest total fragment drop."""
        vm = state.vms[vm_id]
        source_pm = vm.pm_id
        before_source = state.pm_fragment(source_pm)
        source_placement = state.remove_vm(vm_id)
        after_source = state.pm_fragment(source_pm)
        source_delta = after_source - before_source

        best: Optional[_Candidate] = None
        conflicts = state.conflicting_pm_ids(vm_id)
        try:
            for pm_id in state.sorted_pm_ids():
                if pm_id == source_pm or pm_id in conflicts:
                    continue
                numa_id = state.best_numa_for(vm_id, pm_id, honor_affinity=False)
                if numa_id is None:
                    continue
                before_dest = state.pm_fragment(pm_id)
                state.place_vm(vm_id, _placement(pm_id, numa_id), honor_affinity=False)
                after_dest = state.pm_fragment(pm_id)
                state.remove_vm(vm_id)
                total_delta = source_delta + (after_dest - before_dest)
                if best is None or total_delta < best.total_delta:
                    best = _Candidate(vm_id, pm_id, numa_id, total_delta)
        finally:
            state.place_vm(vm_id, source_placement, honor_affinity=False)
        return best


def _placement(pm_id: int, numa_id: int):
    from ..cluster import Placement

    return Placement(pm_id=pm_id, numa_id=numa_id)
