"""A uniformly random rescheduler, used as a sanity-check lower bound."""

from __future__ import annotations

import numpy as np

from ..cluster import ClusterState, Migration, MigrationPlan
from .base import Rescheduler


class RandomRescheduler(Rescheduler):
    """Migrate uniformly random VMs to uniformly random feasible PMs."""

    name = "Random"

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)

    def _compute(self, state: ClusterState, migration_limit: int) -> MigrationPlan:
        plan = MigrationPlan()
        for _ in range(migration_limit):
            soa = state.arrays()
            has_destination = soa.feasibility().any(axis=1)
            # In the order the VMs joined the cluster, which the seeded draw
            # below depends on.
            movable = [vm_id for vm_id in state.vms if has_destination[soa.vm_row[vm_id]]]
            if not movable:
                break
            vm_id = int(self.rng.choice(movable))
            destinations = state.feasible_destination_pms(vm_id)
            dest_pm_id = int(self.rng.choice(destinations))
            state.migrate_vm(vm_id, dest_pm_id)
            plan.append(Migration(vm_id=vm_id, dest_pm_id=dest_pm_id))
        return plan
