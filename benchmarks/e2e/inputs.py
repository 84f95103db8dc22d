"""Seeded inputs: one cluster per size and a pool of drifted snapshots.

The same seed gives the same inputs; the program under test only ever sees
the generated :class:`PlanRequest` objects.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cluster import ClusterState
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.serve import PlanRequest

from .spec import Size

#: Random feasible migrations applied to the base cluster per request, as
#: ``bench_serve_throughput._requests`` does: successive snapshots of ONE
#: cluster (same PM/VM population, shifting placements).
DRIFT_MIGRATIONS = 4


def cluster_spec(size: Size) -> ClusterSpec:
    return ClusterSpec(
        name=f"e2e-{size.name}",
        num_pms=size.num_pms,
        target_utilization=0.75,
        best_fit_fraction=0.3,
    )


def make_cluster(size: Size, seed: int) -> ClusterState:
    """A seeded cluster trimmed to exactly ``size.num_vms`` VMs.

    The generator's VM count varies by ±25 % with the seed, and the policy's
    cost grows with V²; trimming keeps the work per request the same on
    every seed, so seeds vary placements and not the amount of work.
    """
    generator = SnapshotGenerator(cluster_spec(size), seed=seed)
    state = generator.generate()
    while state.num_vms < size.num_vms:
        state = generator.generate()
    rng = np.random.default_rng([seed, 1])
    surplus = rng.choice(
        state.placed_vm_ids(), size=state.num_vms - size.num_vms, replace=False
    )
    for vm_id in surplus:
        state.remove_vm_from_cluster(int(vm_id))
    return state


def drifted(base: ClusterState, rng: np.random.Generator) -> ClusterState:
    state = base.copy()
    for _ in range(DRIFT_MIGRATIONS):
        vm_ids = state.placed_vm_ids()
        vm_id = int(vm_ids[rng.integers(len(vm_ids))])
        destinations = state.feasible_destination_pms(vm_id)
        if destinations:
            state.migrate_vm(vm_id, int(destinations[rng.integers(len(destinations))]))
    return state


def make_requests(
    base: ClusterState,
    count: int,
    planner: str,
    migration_limit: int,
    seed: int,
    label: str,
) -> List[PlanRequest]:
    """``count`` greedy requests over independently drifted copies of ``base``.

    No request carries a deadline, so a ``partial`` reply is a failure.
    """
    rng = np.random.default_rng([seed, 2])
    return [
        PlanRequest.from_state(
            drifted(base, rng),
            planner=planner,
            migration_limit=migration_limit,
            request_id=f"{label}-{index}",
        )
        for index in range(count)
    ]
