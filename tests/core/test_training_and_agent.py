"""Integration-level tests for PPO training, risk-seeking evaluation and the agent API."""

import numpy as np
import pytest

from repro.baselines import evaluate_plan
from repro.cluster import ConstraintConfig
from repro.core import (
    ModelConfig,
    PPOConfig,
    PPOTrainer,
    RiskSeekingConfig,
    TwoStagePolicy,
    VMR2LAgent,
    VMR2LConfig,
    risk_seeking_evaluate,
    vm_selection_probability_histogram,
)
from repro.core.risk_seeking import rollout_batch
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env import MigrationMinimizationObjective, VMRescheduleEnv
from repro.env.objectives import FragmentRateObjective
from repro.nn.tensor import grad_enabled


def tiny_config(action_mode="two_stage", extractor="sparse", mnl=4):
    return VMR2LConfig(
        model=ModelConfig(
            embed_dim=16, num_heads=2, num_blocks=1, feedforward_dim=32,
            extractor=extractor, action_mode=action_mode,
        ),
        ppo=PPOConfig(rollout_steps=16, minibatch_size=8, update_epochs=1, learning_rate=1e-3),
        risk_seeking=RiskSeekingConfig(num_trajectories=3),
        migration_limit=mnl,
    )


def plan_tuples(plan):
    return [migration.as_tuple() for migration in plan]


@pytest.fixture(scope="module")
def snapshots():
    generator = SnapshotGenerator(ClusterSpec(num_pms=6, target_utilization=0.7), seed=0)
    return generator.generate_many(3)


class TestPPOTrainer:
    def test_collect_rollout_fills_buffer(self, snapshots):
        config = tiny_config()
        policy = TwoStagePolicy(config.model, rng=np.random.default_rng(0))
        env = VMRescheduleEnv(snapshots[0], ConstraintConfig(migration_limit=4))
        trainer = PPOTrainer(policy, env, config.ppo)
        buffer = trainer.collect_rollout()
        assert len(buffer) == config.ppo.rollout_steps
        assert all(np.isfinite(t.reward) for t in buffer.transitions)
        assert trainer.global_step == config.ppo.rollout_steps

    def test_update_changes_parameters(self, snapshots):
        config = tiny_config()
        policy = TwoStagePolicy(config.model, rng=np.random.default_rng(0))
        env = VMRescheduleEnv(snapshots[0], ConstraintConfig(migration_limit=4))
        trainer = PPOTrainer(policy, env, config.ppo)
        before = {name: value.copy() for name, value in policy.state_dict().items()}
        buffer = trainer.collect_rollout()
        stats = trainer.update(buffer)
        after = policy.state_dict()
        assert any(not np.allclose(before[name], after[name]) for name in before)
        assert np.isfinite(stats["policy_loss"])
        assert np.isfinite(stats["value_loss"])

    def test_train_records_history(self, snapshots):
        config = tiny_config()
        policy = TwoStagePolicy(config.model, rng=np.random.default_rng(0))
        env = VMRescheduleEnv(snapshots[0], ConstraintConfig(migration_limit=4))
        trainer = PPOTrainer(policy, env, config.ppo)
        history = trainer.train(total_steps=32)
        assert len(history) == 2
        assert history[0].global_step == 16
        assert history[-1].global_step == 32

    def test_train_rejects_bad_steps(self, snapshots):
        config = tiny_config()
        policy = TwoStagePolicy(config.model, rng=np.random.default_rng(0))
        env = VMRescheduleEnv(snapshots[0], ConstraintConfig(migration_limit=4))
        with pytest.raises(ValueError):
            PPOTrainer(policy, env, config.ppo).train(total_steps=0)

    def test_training_with_penalty_mode(self, snapshots):
        """The §5.4 Penalty ablation trains without masks and a -5 penalty."""
        config = tiny_config(action_mode="penalty")
        policy = TwoStagePolicy(config.model, rng=np.random.default_rng(0))
        env = VMRescheduleEnv(
            snapshots[0], ConstraintConfig(migration_limit=4), illegal_action_penalty=-5.0
        )
        trainer = PPOTrainer(policy, env, config.ppo)
        history = trainer.train(total_steps=16)
        assert len(history) == 1

    def test_training_with_full_joint_mode(self, snapshots):
        config = tiny_config(action_mode="full_joint")
        policy = TwoStagePolicy(config.model, rng=np.random.default_rng(0))
        env = VMRescheduleEnv(snapshots[0], ConstraintConfig(migration_limit=4))
        trainer = PPOTrainer(policy, env, config.ppo)
        history = trainer.train(total_steps=16)
        assert len(history) == 1


class TestRiskSeeking:
    def test_rollout_is_feasible_plan(self, snapshots):
        config = tiny_config()
        policy = TwoStagePolicy(config.model, rng=np.random.default_rng(0))
        trajectory = rollout_batch(policy, [snapshots[0]], [4], [np.random.default_rng(0)])[0]
        assert len(trajectory.plan) <= 4
        assert 0.0 <= trajectory.final_objective <= 1.0

    def test_best_trajectory_not_worse_than_any_sample(self, snapshots):
        config = tiny_config()
        policy = TwoStagePolicy(config.model, rng=np.random.default_rng(0))
        outcome = risk_seeking_evaluate(
            policy, snapshots[0], 4, config=RiskSeekingConfig(num_trajectories=4), seed=0
        )
        assert outcome.num_trajectories == 4
        assert outcome.best.final_objective == pytest.approx(outcome.objectives().min())

    def test_more_trajectories_never_hurt(self, snapshots):
        """Core property behind Fig. 12: the min over a superset is <= min over a
        subset — by construction, since K=2's rows are exactly K=6's first rows."""
        config = tiny_config()
        policy = TwoStagePolicy(config.model, rng=np.random.default_rng(0))
        few = risk_seeking_evaluate(
            policy, snapshots[0], 4, config=RiskSeekingConfig(num_trajectories=2), seed=7
        )
        many = risk_seeking_evaluate(
            policy, snapshots[0], 4, config=RiskSeekingConfig(num_trajectories=6), seed=7
        )
        assert many.best.final_objective <= few.best.final_objective + 1e-9
        assert [plan_tuples(t.plan) for t in few.trajectories] == [
            plan_tuples(t.plan) for t in many.trajectories[:2]
        ]
        assert few.objectives().tolist() == many.objectives()[:2].tolist()

    def test_row_k_is_a_one_element_rollout_seeded_seed_k(self, snapshots):
        config = tiny_config()
        policy = TwoStagePolicy(config.model, rng=np.random.default_rng(0))
        rs_config = RiskSeekingConfig(num_trajectories=5, vm_quantile=0.3, pm_quantile=0.5)
        outcome = risk_seeking_evaluate(policy, snapshots[1], 4, config=rs_config, seed=11)
        for k, trajectory in enumerate(outcome.trajectories):
            greedy = k == 0
            solo = rollout_batch(
                policy, [snapshots[1]], [4], [np.random.default_rng([11, k])], greedy=greedy,
                vm_quantile=None if greedy else 0.3, pm_quantile=None if greedy else 0.5,
            )[0]
            assert trajectory.greedy == greedy
            assert plan_tuples(trajectory.plan) == plan_tuples(solo.plan)
            assert trajectory.final_objective == solo.final_objective
            assert trajectory.total_reward == solo.total_reward

    def test_rollout_batch_rows_match_single_rollouts(self, snapshots):
        config = tiny_config()
        policy = TwoStagePolicy(config.model, rng=np.random.default_rng(0))
        rows = rollout_batch(
            policy, snapshots, [4, 0, 3], [np.random.default_rng([3, k]) for k in range(3)]
        )
        assert rows[1].plan.migrations == [] and rows[1].steps == 0
        assert rows[1].final_objective == FragmentRateObjective().episode_metric(snapshots[1])
        for k in (0, 2):
            solo = rollout_batch(
                policy, [snapshots[k]], [[4, 0, 3][k]], [np.random.default_rng([3, k])]
            )[0]
            assert plan_tuples(rows[k].plan) == plan_tuples(solo.plan)
            assert rows[k].final_objective == solo.final_objective

    def test_probability_histogram(self, snapshots):
        config = tiny_config()
        policy = TwoStagePolicy(config.model, rng=np.random.default_rng(0))
        histogram = vm_selection_probability_histogram(policy, snapshots[:1], migration_limit=3)
        assert histogram["counts"].sum() == len(histogram["probabilities"])
        assert histogram["probabilities"].min() >= 0.0

    def test_probability_histogram_records_no_graph(self, snapshots, monkeypatch):
        config = tiny_config()
        policy = TwoStagePolicy(config.model, rng=np.random.default_rng(0))
        # The same loop with graph recording on (the forwards are bit-identical).
        rng = np.random.default_rng(5)
        expected = []
        for state in snapshots[:2]:
            env = VMRescheduleEnv(state, ConstraintConfig(migration_limit=3))
            observation, done = env.reset(), False
            while not done and observation.vm_mask.any():
                output = policy.act(observation, pm_mask_fn=env.pm_action_mask, rng=rng)
                expected.extend(output.vm_probs.tolist())
                observation, _, done, _ = env.step(output.action)
        recording = []
        act = policy.act
        monkeypatch.setattr(
            policy, "act", lambda *a, **k: recording.append(grad_enabled()) or act(*a, **k)
        )
        histogram = vm_selection_probability_histogram(
            policy, snapshots[:2], migration_limit=3, seed=5
        )
        assert recording and not any(recording)
        assert histogram["probabilities"].tolist() == expected


class TestVMR2LAgent:
    def test_agent_plan_respects_mnl_and_is_reschedulable(self, snapshots):
        agent = VMR2LAgent(tiny_config(), constraint_config=ConstraintConfig(migration_limit=4), seed=0)
        result = agent.compute_plan(snapshots[0], migration_limit=4)
        evaluation = evaluate_plan(snapshots[0], result)
        assert result.num_migrations <= 4
        assert evaluation.num_skipped == 0
        assert "best_objective" in result.info

    def test_agent_training_improves_or_matches_initial(self, snapshots):
        agent = VMR2LAgent(tiny_config(), constraint_config=ConstraintConfig(migration_limit=4), seed=0)
        history = agent.train_on_states(snapshots, total_steps=32, eval_states=snapshots[:1])
        assert len(history) == 2
        assert history[-1].eval_metric is not None
        evaluation = agent.evaluate(snapshots[:1], migration_limit=4)
        assert evaluation["mean_final_objective"] <= evaluation["mean_initial_objective"] + 1e-9

    def test_agent_empty_training_set_rejected(self):
        agent = VMR2LAgent(tiny_config())
        with pytest.raises(ValueError):
            agent.train_on_states([], total_steps=16)
        with pytest.raises(ValueError):
            agent.evaluate([], migration_limit=4)

    def test_agent_save_load_roundtrip(self, tmp_path, snapshots):
        agent = VMR2LAgent(tiny_config(), seed=0)
        path = agent.save(tmp_path / "vmr2l_ckpt")
        loaded = VMR2LAgent.load(path)
        original_params = agent.policy.state_dict()
        loaded_params = loaded.policy.state_dict()
        for name in original_params:
            np.testing.assert_allclose(original_params[name], loaded_params[name])
        assert loaded.config.migration_limit == agent.config.migration_limit

    def test_checkpoint_recording_retired_attention_options_loads(self, tmp_path):
        from repro.nn.serialization import save_module

        agent = VMR2LAgent(tiny_config(), seed=0)
        config = agent.config.to_dict()
        config["model"].update(
            attention_impl="chunked", attention_chunk_size=256, float32_vm_attention=False
        )
        path = save_module(agent.policy, tmp_path / "old_ckpt", metadata={"config": config, "seed": 0})
        loaded = VMR2LAgent.load(path)
        assert loaded.config == agent.config
        for name, array in agent.policy.state_dict().items():
            assert np.array_equal(loaded.policy.state_dict()[name], array)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_checkpoint_recording_an_activation(self, tmp_path, activation):
        # The network is ReLU throughout: a checkpoint recording "relu" (as
        # every saved config once did) loads, and one trained with any other
        # activation is refused instead of running as a ReLU network.
        from repro.nn.serialization import save_module

        agent = VMR2LAgent(tiny_config(), seed=0)
        config = agent.config.to_dict()
        config["model"]["activation"] = activation
        path = save_module(agent.policy, tmp_path / "ckpt", metadata={"config": config, "seed": 0})
        if activation != "relu":
            with pytest.raises(ValueError, match="tanh"):
                VMR2LAgent.load(path)
            return
        loaded = VMR2LAgent.load(path)
        assert loaded.config == agent.config
        for name, array in agent.policy.state_dict().items():
            assert np.array_equal(loaded.policy.state_dict()[name], array)

    @pytest.mark.parametrize("greedy_first", [True, False])
    def test_checkpoint_recording_greedy_first(self, tmp_path, greedy_first):
        # Every config saved before risk-seeking became greedy-first always
        # records the field; the option never shaped the weights, so the
        # checkpoint loads and the field is dropped.
        from repro.nn.serialization import save_module

        agent = VMR2LAgent(tiny_config(), seed=0)
        config = agent.config.to_dict()
        assert "greedy_first" not in config["risk_seeking"]
        config["risk_seeking"]["greedy_first"] = greedy_first
        path = save_module(agent.policy, tmp_path / "ckpt", metadata={"config": config, "seed": 0})
        loaded = VMR2LAgent.load(path)
        assert loaded.config == agent.config
        for name, array in agent.policy.state_dict().items():
            assert np.array_equal(loaded.policy.state_dict()[name], array)

    def test_checkpoint_is_small(self, tmp_path):
        """The paper highlights checkpoints under 2 MB."""
        agent = VMR2LAgent(tiny_config(), seed=0)
        path = agent.save(tmp_path / "small_ckpt")
        assert path.stat().st_size < 2 * 1024 * 1024

    def test_agent_with_min_migration_objective(self, snapshots):
        objective = MigrationMinimizationObjective(fr_goal=0.9)
        agent = VMR2LAgent(
            tiny_config(), objective=objective,
            constraint_config=ConstraintConfig(migration_limit=4), seed=0,
        )
        result = agent.compute_plan(snapshots[0], migration_limit=4)
        # The goal (FR <= 0.9) is already met, so the plan should stop immediately.
        assert result.num_migrations <= 1

    def test_evaluate_zero_limit_is_a_noop(self, snapshots):
        agent = VMR2LAgent(tiny_config(), seed=0)
        evaluation = agent.evaluate(snapshots, migration_limit=0)
        assert evaluation["mean_final_objective"] == evaluation["mean_initial_objective"]
        assert evaluation["mean_improvement"] == 0.0

    @pytest.mark.parametrize("greedy", [True, False])
    def test_evaluate_is_one_rollout_per_state(self, snapshots, greedy):
        agent = VMR2LAgent(tiny_config(), seed=0)
        evaluation = agent.evaluate(snapshots, migration_limit=3, greedy=greedy, seed=4)
        finals = [
            rollout_batch(
                agent.policy, [state], [3], [np.random.default_rng([4, k])], greedy=greedy
            )[0].final_objective
            for k, state in enumerate(snapshots)
        ]
        assert evaluation["mean_final_objective"] == float(np.mean(finals))

    def test_plan_batch_of_one(self, snapshots):
        agent = VMR2LAgent(tiny_config(), seed=0)
        plan = agent.plan_batch([snapshots[0]], 3)[0].plan
        assert len(plan) <= 3
