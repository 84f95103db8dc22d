"""POP: Partitioned Optimization Problems (Narayanan et al., SOSP '21).

ByteDance's production fallback (§2.2): randomly partition the rescheduling
problem into ``num_partitions`` subproblems — each receives a disjoint subset
of the PMs and the VMs currently hosted on them — solve each subproblem with
the exact MIP of :class:`repro.baselines.mip.MIPRescheduler` under a share of
the migration budget and the latency budget, and concatenate the per-partition
plans into a global plan.

Because each subproblem only sees its own PMs, the combined solution is only
locally optimal; with enough partitions it meets the five-second limit but
loses quality, which is exactly the behaviour the paper reports in §5.2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cluster import ClusterState, MigrationPlan
from .base import Rescheduler
from .mip import MIPRescheduler


class POPRescheduler(Rescheduler):
    """Random-partition + per-partition MIP rescheduler."""

    name = "POP"

    def __init__(
        self,
        num_partitions: int = 4,
        time_limit_s: Optional[float] = 5.0,
        seed: int = 0,
    ) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions
        self.time_limit_s = time_limit_s
        self.seed = seed
        self._info: Dict = {}

    def _compute(self, state: ClusterState, migration_limit: int) -> MigrationPlan:
        rng = np.random.default_rng(self.seed)
        pm_ids = np.array(state.sorted_pm_ids())
        rng.shuffle(pm_ids)
        partitions: List[np.ndarray] = np.array_split(pm_ids, self.num_partitions)

        per_partition_budget = max(migration_limit // self.num_partitions, 1)
        per_partition_time = (
            self.time_limit_s / self.num_partitions if self.time_limit_s is not None else None
        )

        combined = MigrationPlan()
        partition_stats = []
        for partition_pms in partitions:
            if partition_pms.size == 0:
                continue
            sub_state = self._extract_subproblem(state, [int(p) for p in partition_pms])
            if sub_state.num_vms == 0:
                continue
            solver = MIPRescheduler(time_limit_s=per_partition_time)
            result = solver.compute_plan(sub_state, per_partition_budget)
            partition_stats.append(
                {
                    "num_pms": int(partition_pms.size),
                    "num_vms": sub_state.num_vms,
                    "num_migrations": result.num_migrations,
                    "status": result.info.get("status"),
                }
            )
            for migration in result.plan:
                combined.append(migration)
        self._info = {"partitions": partition_stats}
        return combined

    def _last_info(self) -> Dict:
        return dict(self._info)

    @staticmethod
    def _extract_subproblem(state: ClusterState, pm_ids: Sequence[int]) -> ClusterState:
        """Build a sub-cluster containing only ``pm_ids`` and the VMs they host."""
        payload = state.to_dict()
        pm_set = set(pm_ids)
        payload["pms"] = [pm for pm in payload["pms"] if pm["pm_id"] in pm_set]
        payload["vms"] = [vm for vm in payload["vms"] if vm.get("pm_id") in pm_set]
        return ClusterState.from_dict(payload)
