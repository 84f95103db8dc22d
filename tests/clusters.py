"""The small generated cluster the serving and robustness suites plan on.

Five PMs at 70% utilization with 20% of the VMs placed best-fit: big enough
that every planner finds moves, small enough that a plan takes milliseconds.
"""

from __future__ import annotations

from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.serve import PlanRequest


def small_state(num_pms=5, seed=0):
    spec = ClusterSpec(num_pms=num_pms, target_utilization=0.7, best_fit_fraction=0.2)
    return SnapshotGenerator(spec, seed=seed).generate()


def plan_request(seed=0, planner="ha", migration_limit=2):
    """An HA request with MNL 2 on ``small_state(seed=seed)`` unless told otherwise."""
    return PlanRequest.from_state(
        small_state(seed=seed), planner=planner, migration_limit=migration_limit
    )
