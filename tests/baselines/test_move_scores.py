"""The SoA view's move scores reproduce the search baselines' probe loops.

HA, α-VBPP and MCTS rank moves by ``ClusterArrays.source_deltas`` /
``move_scores``; before that each probed every move by removing and placing
the VM.  Those loops live in ``tests/oracles.py``, and on generated clusters
(grouped or not) the planners' plans, victim lists and candidate lists must
equal theirs exactly — NUMA choices and tie order included.
"""

import numpy as np
import pytest

from oracles import (
    best_numa_reference,
    ha_plan_reference,
    mcts_candidates_reference,
    vbpp_victims_reference,
)
from repro.baselines import AlphaVBPP, FilteringHeuristic, MCTSRescheduler
from repro.cluster.constraints import assign_anti_affinity_groups
from repro.datasets import ClusterSpec, SnapshotGenerator


def _cluster(num_pms, seed, grouped):
    spec = ClusterSpec(
        name="scores", num_pms=num_pms, target_utilization=0.75, best_fit_fraction=0.3
    )
    state = SnapshotGenerator(spec, seed=seed).generate()
    if grouped:
        assign_anti_affinity_groups(state, 6, 3, np.random.default_rng(seed))
    return state


@pytest.mark.parametrize("grouped", [False, True], ids=["plain", "grouped"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("num_pms", [8, 40])
def test_move_scores_reproduce_the_probe_loops(num_pms, seed, grouped):
    state = _cluster(num_pms, seed, grouped)

    for migration_limit in (1, 8, 25):
        plan = FilteringHeuristic().compute_plan(state, migration_limit).plan
        assert repr(plan.migrations) == repr(ha_plan_reference(state.copy(), migration_limit))

    for count in (1, 3, 10, state.num_vms):
        assert AlphaVBPP()._select_victims(state.copy(), count) == vbpp_victims_reference(
            state.copy(), count
        )

    every_pair = mcts_candidates_reference(state.copy(), state.num_vms * state.num_pms)
    for limit in (6, 50, len(every_pair)):
        assert MCTSRescheduler()._candidate_actions(state.copy(), limit) == every_pair[:limit]
    assert any(state.vms[vm_id].numa_count == 2 for vm_id, _ in every_pair)

    # Every legal move lands on the object path's NUMA, which migrate_vm picks.
    soa = state.arrays()
    total, numa = soa.move_scores(slice(None), state.fragment_cores)
    for row, column in zip(*np.nonzero(total < np.inf)):
        vm_id, pm_id = int(soa.vm_ids[row]), int(soa.pm_ids[column])
        assert numa[row, column] == best_numa_reference(state, vm_id, pm_id)
        assert state.best_numa_for(vm_id, pm_id) == numa[row, column]
