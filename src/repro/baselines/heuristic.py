"""The filtering-based heuristic algorithm (HA) used in production (§2.1).

The heuristic repeats two stages until the migration limit is reached or no
migration improves the objective:

1. **Filtering** — among the VMs with a legal destination, keep the one whose
   departure lowers its source PM's fragment most (the argmin of
   :meth:`~repro.cluster.soa.ClusterArrays.source_deltas`).
2. **Scoring** — move it to the PM where the total fragment drops most (the
   argmin of that VM's row of
   :meth:`~repro.cluster.soa.ClusterArrays.move_scores`); stop as soon as
   that move does not strictly reduce the fragment, as HA stops finding useful
   VMs after ~25 migrations in Fig. 4.

Ties go to the lower VM row, then the lower PM row (sorted ids).  Because
every migration keeps the total free CPU constant, minimizing the total
fragment is equivalent to minimizing the fragment *rate*, so the heuristic
works on raw fragment sizes.  Every step reads the state's one memoized
feasibility matrix, patched after each migration.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..cluster import ClusterState, Migration, MigrationPlan
from .base import Rescheduler


class FilteringHeuristic(Rescheduler):
    """Greedy filtering + scoring heuristic (the paper's HA baseline)."""

    name = "HA"

    def __init__(self) -> None:
        self._info: Dict = {}

    def _compute(self, state: ClusterState, migration_limit: int) -> MigrationPlan:
        plan = MigrationPlan()
        stop_reason = "migration_limit"
        for _ in range(migration_limit):
            soa = state.arrays()
            movable = np.flatnonzero(soa.feasibility().any(axis=1))
            if not movable.size:
                stop_reason = "no_candidate"
                break
            row = movable[np.argmin(soa.source_deltas(movable, state.fragment_cores))]
            total, numa = soa.move_scores([row], state.fragment_cores)
            column = int(np.argmin(total[0]))
            if total[0, column] >= 0:
                stop_reason = "no_improvement"
                break
            migration = Migration(int(soa.vm_ids[row]), int(soa.pm_ids[column]), int(numa[0, column]))
            state.migrate_vm(migration.vm_id, migration.dest_pm_id, dest_numa_id=migration.dest_numa_id)
            plan.append(migration)
        self._info = {"stop_reason": stop_reason, "final_fragment_rate": state.fragment_rate()}
        return plan

    def _last_info(self) -> Dict:
        return dict(self._info)
