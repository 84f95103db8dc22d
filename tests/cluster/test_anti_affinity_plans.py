"""Every planner's plan keeps the §5.4 anti-affinity constraint.

On generated clusters whose anti-affinity groups start spread over distinct
PMs, greedy VMR2L (StepCache on and off), risk-seeking VMR2L, HA, α-VBPP,
MCTS and Random must each emit a plan that replays step by step under
``apply_plan(..., skip_infeasible=False)`` and leaves no PM hosting two VMs of
one group.  MIP, POP and NeuPlan are not replayed here.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import AlphaVBPP, FilteringHeuristic, MCTSRescheduler, RandomRescheduler
from repro.cluster import apply_plan
from repro.core import ModelConfig, RiskSeekingConfig, VMR2LAgent, VMR2LConfig
from repro.datasets import ClusterSpec, SnapshotGenerator

MIGRATION_LIMIT = 6


@pytest.fixture(scope="module")
def agent():
    config = VMR2LConfig(
        model=ModelConfig(embed_dim=16, num_heads=2, num_blocks=1, feedforward_dim=32),
        risk_seeking=RiskSeekingConfig(num_trajectories=3),
        migration_limit=MIGRATION_LIMIT,
    )
    return VMR2LAgent(config, seed=0)


def grouped_cluster(seed, num_pms, group_count, group_size):
    """A generated cluster with groups whose members sit on distinct PMs."""
    spec = ClusterSpec(name="aa", num_pms=num_pms, target_utilization=0.7, best_fit_fraction=0.3)
    state = SnapshotGenerator(spec, seed=seed).generate()
    rng = np.random.default_rng(seed)
    unused = [int(vm_id) for vm_id in rng.permutation(state.placed_vm_ids())]
    for group in range(group_count):
        members, hosts = [], set()
        for vm_id in unused:
            if state.vms[vm_id].pm_id not in hosts:
                members.append(vm_id)
                hosts.add(state.vms[vm_id].pm_id)
            if len(members) == group_size:
                break
        for vm_id in members:
            unused.remove(vm_id)
            state.set_anti_affinity_group(vm_id, group)
    return state


def assert_keeps_anti_affinity(state, plan):
    final, _ = apply_plan(state, plan, skip_infeasible=False)
    for pm in final.pms.values():
        groups = Counter(
            final.vms[vm_id].anti_affinity_group
            for vm_id in pm.vm_ids
            if final.vms[vm_id].anti_affinity_group is not None
        )
        assert not groups or max(groups.values()) == 1, (pm.pm_id, groups)


@given(
    seed=st.integers(0, 2 ** 16),
    num_pms=st.integers(4, 9),
    group_count=st.integers(1, 6),
    group_size=st.integers(2, 4),
)
@settings(max_examples=12, deadline=None)
def test_every_planner_keeps_anti_affinity(agent, seed, num_pms, group_count, group_size):
    state = grouped_cluster(seed, num_pms, group_count, group_size)
    assert_keeps_anti_affinity(state, [])  # the groups start spread out
    plans = [
        agent.plan_batch([state], MIGRATION_LIMIT, use_step_cache=True)[0].plan,
        agent.plan_batch([state], MIGRATION_LIMIT, use_step_cache=False)[0].plan,
        agent.plan_batch([state], MIGRATION_LIMIT, greedy=False, seed=seed)[0].plan,
    ]
    for planner in (
        FilteringHeuristic(),
        AlphaVBPP(alpha=3),
        MCTSRescheduler(iterations_per_step=4, candidate_actions=4, rollout_depth=2, seed=seed),
        RandomRescheduler(seed=seed),
    ):
        plans.append(planner.compute_plan(state, MIGRATION_LIMIT).plan)
    for plan in plans:
        assert_keeps_anti_affinity(state, plan)


@pytest.mark.parametrize(
    "seed, num_pms, group_count, group_size, alpha",
    [
        (14095, 4, 1, 3, 3),
        (48345, 4, 5, 4, 3),
        (63830, 4, 2, 4, 3),
        (29961, 7, 5, 4, 5),
        (59141, 5, 6, 4, 3),
    ],
)
def test_vbpp_replays_strictly_on_grouped_clusters(seed, num_pms, group_count, group_size, alpha):
    # Regression: the first three put a stage victim that found no room back
    # on its original NUMA after another victim had taken it (a crash at NUMA
    # allocate); the last emitted a move onto a PM still hosting a group
    # member that left only later in the plan, so strict replay refused it;
    # the fifth emitted a move onto its pinned NUMA after a skipped move had
    # left that NUMA taken (a crash at NUMA allocate).
    state = grouped_cluster(seed, num_pms, group_count, group_size)
    result = AlphaVBPP(alpha=alpha).compute_plan(state, MIGRATION_LIMIT)
    assert_keeps_anti_affinity(state, result.plan)
    replayed, _ = apply_plan(state, result.plan, skip_infeasible=False)
    assert replayed.fragment_rate() == pytest.approx(result.info["final_fragment_rate"])
