"""Tests for VMR2LAgent.plan_batch (micro-batched greedy planning)."""

import pytest

from repro.cluster import ConstraintConfig, apply_plan
from repro.core import ModelConfig, RiskSeekingConfig, VMR2LAgent, VMR2LConfig
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env.objectives import MixedFragmentObjective


def snapshots(count, num_pms=6, seed=0):
    spec = ClusterSpec(name="pb", num_pms=num_pms, target_utilization=0.7, best_fit_fraction=0.3)
    generator = SnapshotGenerator(spec, seed=seed)
    return [generator.generate() for _ in range(count)]


@pytest.fixture(scope="module")
def agent():
    return VMR2LAgent(constraint_config=ConstraintConfig(migration_limit=5), seed=0)


class TestPlanBatch:
    def test_greedy_batch_matches_single_trajectory(self, agent):
        states = snapshots(3)
        results = agent.plan_batch(states, migration_limits=4, greedy=True)
        for state, result in zip(states, results):
            solo = agent.plan_batch([state], 4, greedy=True, use_step_cache=False)[0].plan
            assert [m.as_tuple() for m in result.plan] == [m.as_tuple() for m in solo]
            assert result.algorithm == "VMR2L"
            assert result.info["batch_size"] == 3

    def test_inference_seconds_is_per_request_share(self, agent):
        # The batch's wall time is split across requests by step share, so
        # per-request timings stay comparable to sequential planners.
        states = snapshots(3)
        results = agent.plan_batch(states, migration_limits=4, greedy=True)
        batch_seconds = results[0].info["batch_seconds"]
        assert all(r.inference_seconds <= batch_seconds + 1e-9 for r in results)
        assert sum(r.inference_seconds for r in results) == pytest.approx(batch_seconds)

    def test_per_state_migration_limits(self, agent):
        states = snapshots(2)
        results = agent.plan_batch(states, migration_limits=[1, 3], greedy=True)
        assert len(results[0].plan) <= 1
        assert len(results[1].plan) <= 3

    def test_zero_limit_entries_are_noops(self, agent):
        states = snapshots(2)
        results = agent.plan_batch(states, migration_limits=[0, 2], greedy=True)
        assert len(results[0].plan) == 0
        assert results[0].info.get("noop") is True
        assert results[0].inference_seconds == 0.0

    def test_empty_batch(self, agent):
        assert agent.plan_batch([], migration_limits=[]) == []

    def test_mismatched_limits_rejected(self, agent):
        with pytest.raises(ValueError):
            agent.plan_batch(snapshots(2), migration_limits=[1])

    def test_negative_limit_rejected(self, agent):
        with pytest.raises(ValueError):
            agent.plan_batch(snapshots(1), migration_limits=[-1])

    def test_input_states_not_mutated(self, agent):
        states = snapshots(2)
        before = [state.to_dict() for state in states]
        agent.plan_batch(states, migration_limits=3, greedy=True)
        assert [state.to_dict() for state in states] == before

    def test_objective_override(self, agent):
        states = snapshots(2)
        results = agent.plan_batch(
            states, migration_limits=2, greedy=True,
            objective=MixedFragmentObjective(weight=0.5),
        )
        assert all(0.0 <= result.info["final_objective"] <= 1.0 for result in results)

    @pytest.mark.parametrize("use_step_cache", [True, False])
    def test_mixed_cluster_sizes_return_the_per_request_plans(self, agent, use_step_cache):
        small = snapshots(2, num_pms=5, seed=1)
        large = snapshots(2, num_pms=7, seed=2)
        states = [small[0], large[0], small[1], large[1]]
        results = agent.plan_batch(
            states, migration_limits=3, greedy=True, use_step_cache=use_step_cache
        )
        assert len(results) == 4
        for state, result in zip(states, results):
            solo = agent.plan_batch([state], 3, greedy=True, use_step_cache=False)[0].plan
            assert [m.as_tuple() for m in result.plan] == [m.as_tuple() for m in solo]


def sampled_agent(action_mode="two_stage"):
    config = VMR2LConfig(
        model=ModelConfig(
            embed_dim=16, num_heads=2, num_blocks=1, feedforward_dim=32, action_mode=action_mode
        ),
        risk_seeking=RiskSeekingConfig(num_trajectories=4, vm_quantile=0.3, pm_quantile=0.3),
    )
    return VMR2LAgent(config, constraint_config=ConstraintConfig(migration_limit=5), seed=0)


class TestSampledPlanBatch:
    """``greedy=False`` is risk-seeking per state over the one rollout driver."""

    def test_batch_equals_one_state_calls(self):
        agent = sampled_agent()
        states = snapshots(3, seed=4)
        batched = agent.plan_batch(states, migration_limits=[4, 2, 4], greedy=False, seed=9)
        for state, limit, result in zip(states, [4, 2, 4], batched):
            solo = agent.plan_batch([state], limit, greedy=False, seed=9)[0]
            assert [m.as_tuple() for m in result.plan] == [m.as_tuple() for m in solo.plan]
            assert result.info["best_objective"] == solo.info["best_objective"]
            assert result.info["num_trajectories"] == 4

    def test_same_seed_same_plan_and_agent_untouched(self):
        agent = sampled_agent()
        rng_state = agent.rng.bit_generator.state
        attributes = {name: id(value) for name, value in vars(agent).items()}
        state = snapshots(1, seed=5)[0]
        first = agent.plan_batch([state], 4, greedy=False, seed=2)[0]
        second = agent.plan_batch([state], 4, greedy=False, seed=2)[0]
        assert [m.as_tuple() for m in first.plan] == [m.as_tuple() for m in second.plan]
        assert agent.rng.bit_generator.state == rng_state
        assert {name: id(value) for name, value in vars(agent).items()} == attributes

    @pytest.mark.parametrize("action_mode", ["two_stage", "penalty", "full_joint"])
    def test_sampled_plans_replay_strictly_within_mnl(self, action_mode):
        agent = sampled_agent(action_mode)
        for seed, state in enumerate(snapshots(3, seed=6)):
            result = agent.plan_batch([state], 4, greedy=False, seed=seed)[0]
            assert len(result.plan) <= 4
            _, application = apply_plan(state, result.plan, skip_infeasible=False)
            assert application.num_applied == len(result.plan)
            assert result.info["objective_spread"] >= 0.0
