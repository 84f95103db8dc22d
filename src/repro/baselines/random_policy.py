"""A uniformly random rescheduler, used as a sanity-check lower bound."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cluster import ClusterState, ConstraintChecker, ConstraintConfig, Migration, MigrationPlan
from .base import Rescheduler


class RandomRescheduler(Rescheduler):
    """Migrate uniformly random VMs to uniformly random feasible PMs."""

    name = "Random"

    def __init__(self, constraint_config: Optional[ConstraintConfig] = None, seed: int = 0) -> None:
        self.constraint_config = constraint_config or ConstraintConfig()
        self.checker = ConstraintChecker(self.constraint_config)
        self.rng = np.random.default_rng(seed)

    def _compute(self, state: ClusterState, migration_limit: int) -> MigrationPlan:
        plan = MigrationPlan()
        for _ in range(migration_limit):
            movable = [
                vm_id
                for vm_id in state.vms
                if state.vms[vm_id].is_placed
                and state.feasible_destination_pms(
                    vm_id, honor_affinity=self.constraint_config.honor_anti_affinity
                )
            ]
            if not movable:
                break
            vm_id = int(self.rng.choice(movable))
            destinations = state.feasible_destination_pms(
                vm_id, honor_affinity=self.constraint_config.honor_anti_affinity
            )
            dest_pm_id = int(self.rng.choice(destinations))
            state.migrate_vm(vm_id, dest_pm_id, honor_affinity=self.constraint_config.honor_anti_affinity)
            plan.append(Migration(vm_id=vm_id, dest_pm_id=dest_pm_id))
        return plan
