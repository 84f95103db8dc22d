"""Tests for batched act (one extractor forward per vectorized-env step)."""

import numpy as np
import pytest

from repro.cluster import ConstraintConfig
from repro.core import ModelConfig, PPOConfig
from repro.core.features import build_feature_batch, stack_feature_batches
from repro.core.policy import TwoStagePolicy
from repro.core.ppo import PPOTrainer
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env import SyncVectorEnv, VMRescheduleEnv

from oracles import tree_mask


@pytest.fixture(scope="module")
def snapshot():
    spec = ClusterSpec(name="batched", num_pms=6, target_utilization=0.7, best_fit_fraction=0.3)
    return SnapshotGenerator(spec, seed=5).generate()


def make_env(snapshot):
    return VMRescheduleEnv(
        snapshot.copy(), constraint_config=ConstraintConfig(migration_limit=5), seed=0
    )


class TestStackedFeatureBatch:
    def test_stacks_same_size_observations(self, snapshot):
        envs = [make_env(snapshot) for _ in range(2)]
        observations = [env.reset() for env in envs]
        batch = stack_feature_batches([build_feature_batch(obs) for obs in observations])
        p = observations[0].num_pms
        v = observations[0].num_vms
        assert batch.num_pms == p and batch.num_vms == v
        assert batch.pm_features.shape == (2, p, observations[0].pm_features.shape[1])
        assert batch.vm_features.shape == (2, v, observations[0].vm_features.shape[1])
        assert batch.hosts.shape == (2, v)
        assert tree_mask(batch).shape == (2, p + v, p + v)
        # Each batch slice equals the batch of one.
        single = build_feature_batch(observations[0])
        assert single.pm_features.shape == (1,) + batch.pm_features.shape[1:]
        np.testing.assert_array_equal(tree_mask(batch)[:1], tree_mask(single))
        np.testing.assert_array_equal(batch.hosts[:1], single.hosts)
        np.testing.assert_array_equal(batch.pm_features[:1], single.pm_features)

    def test_concatenates_batches_of_any_size(self, snapshot):
        """Batches of several rows concatenate along axis 0, carrying their
        cached per-row tree layouts."""
        env = make_env(snapshot)
        observations = [env.reset()]
        for _ in range(2):
            vm = int(np.flatnonzero(observations[-1].vm_mask)[0])
            pm = int(np.flatnonzero(env.pm_action_mask(vm))[0])
            observations.append(env.step((vm, pm))[0])
        singles = [build_feature_batch(obs) for obs in observations]
        pair = stack_feature_batches(singles[:2])
        assert pair.tree_layout(1) is singles[1].tree_layout(0)
        batch = stack_feature_batches([pair, singles[2]])
        assert batch.pm_features.shape[0] == batch.hosts.shape[0] == 3
        for row, single in enumerate(singles):
            np.testing.assert_array_equal(batch.vm_features[row], single.vm_features[0])
            np.testing.assert_array_equal(batch.hosts[row], single.hosts[0])
            assert batch.tree_layout(row) is single.tree_layout(0)
        assert stack_feature_batches([pair]) is pair

    def test_batch_of_one_views_the_observation_arrays(self, snapshot):
        """A batch of one holds plain arrays that view the observation's
        feature matrices: no copy and no tensor wrapper."""
        observation = make_env(snapshot).reset()
        single = build_feature_batch(observation)
        for features, source in (
            (single.pm_features, observation.pm_features),
            (single.vm_features, observation.vm_features),
        ):
            assert type(features) is np.ndarray
            assert features.base is source

    def test_empty_observation_list_rejected(self):
        with pytest.raises(ValueError):
            stack_feature_batches([])


def make_policy(case, snapshots):
    """One policy per action mode plus the MLP extractor; ``mixed_size`` is
    the default policy over a ragged batch."""
    if case == "mlp":
        return TwoStagePolicy(
            ModelConfig(extractor="mlp"),
            rng=np.random.default_rng(0),
            max_pms=max(s.num_pms for s in snapshots),
            max_vms=max(s.num_vms for s in snapshots),
        )
    mode = case if case in ("penalty", "full_joint") else "two_stage"
    return TwoStagePolicy(ModelConfig(action_mode=mode), rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def other_snapshot():
    spec = ClusterSpec(name="batched-other", num_pms=4, target_utilization=0.6, best_fit_fraction=0.3)
    return SnapshotGenerator(spec, seed=11).generate()


class TestActBatch:
    @pytest.mark.parametrize("case", ["two_stage", "penalty", "full_joint", "mlp", "mixed_size"])
    def test_matches_one_element_calls(self, snapshot, other_snapshot, case):
        """One call at B=N equals N calls at B=1: batch rows never interact."""
        snapshots = [snapshot, other_snapshot, snapshot] if case == "mixed_size" else [snapshot] * 3
        envs = [make_env(s) for s in snapshots]
        observations = [env.reset() for env in envs]
        assert (len({(o.num_pms, o.num_vms) for o in observations}) > 1) == (case == "mixed_size")
        policy = make_policy(case, snapshots)
        joint_masks = [env.joint_action_mask() for env in envs] if case == "full_joint" else None
        batched = policy.act_batch(
            observations,
            pm_mask_fns=[env.pm_action_mask for env in envs],
            rng=np.random.default_rng(1),
            greedy=True,
            joint_masks=joint_masks,
        )
        values = policy.value_of_batch(observations)
        for index, env in enumerate(envs):
            single = policy.act(
                observations[index],
                pm_mask_fn=env.pm_action_mask,
                rng=np.random.default_rng(1),
                greedy=True,
                joint_mask=None if joint_masks is None else joint_masks[index],
            )
            assert batched[index].vm_index == single.vm_index
            assert batched[index].pm_index == single.pm_index
            np.testing.assert_allclose(batched[index].vm_probs, single.vm_probs, atol=1e-8)
            np.testing.assert_allclose(batched[index].pm_probs, single.pm_probs, atol=1e-8)
            assert batched[index].value == pytest.approx(single.value, abs=1e-8)
            assert batched[index].entropy == pytest.approx(single.entropy, abs=1e-7)
            assert batched[index].log_prob == pytest.approx(single.log_prob, abs=1e-7)
            assert values[index] == pytest.approx(policy.value_of(observations[index]), abs=1e-8)

    def test_single_observation_is_a_batch_of_one(self, snapshot):
        env = make_env(snapshot)
        observation = env.reset()
        policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
        outputs = policy.act_batch(
            [observation], pm_mask_fns=[env.pm_action_mask], rng=np.random.default_rng(0)
        )
        assert len(outputs) == 1
        assert 0 <= outputs[0].vm_index < observation.num_vms

    def test_mixed_size_batch_needs_per_env_mask_fns(self, snapshot, other_snapshot):
        envs = [make_env(snapshot), make_env(other_snapshot)]
        policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="needs pm_mask_fns"):
            policy.act_batch([env.reset() for env in envs], rng=np.random.default_rng(0))

    def test_mismatched_mask_fns_rejected(self, snapshot):
        env = make_env(snapshot)
        observation = env.reset()
        policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            policy.act_batch([observation, observation], [env.pm_action_mask], np.random.default_rng(0))


class TestVectorizedPPO:
    def test_trainer_with_sync_vector_env(self, snapshot):
        venv = SyncVectorEnv([lambda: make_env(snapshot) for _ in range(2)])
        policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
        trainer = PPOTrainer(
            policy,
            venv,
            PPOConfig(rollout_steps=16, minibatch_size=8, update_epochs=1, seed=0),
        )
        buffer = trainer.collect_rollout()
        assert len(buffer) == 16
        # Interleaved time-major layout: both envs contribute at every step.
        assert all(t.observation is not None for t in buffer.transitions)
        stats = trainer.update(buffer)
        assert np.isfinite(stats["policy_loss"])

    def test_bare_env_collects_like_a_one_env_vector(self, snapshot):
        def rollout(env):
            policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
            config = PPOConfig(rollout_steps=12, minibatch_size=6, update_epochs=1, seed=0)
            return PPOTrainer(policy, env, config).collect_rollout()

        bare = rollout(make_env(snapshot))
        wrapped = rollout(SyncVectorEnv([lambda: make_env(snapshot)]))
        assert len(bare) == len(wrapped) == 12
        for a, b in zip(bare.transitions, wrapped.transitions):
            assert (a.vm_index, a.pm_index, a.log_prob, a.value, a.reward, a.done) == (
                b.vm_index, b.pm_index, b.log_prob, b.value, b.reward, b.done
            )
            assert (a.advantage, a.return_) == (b.advantage, b.return_)

    def test_gae_num_envs_chains(self):
        from repro.core.rollout import RolloutBuffer, Transition

        def transition(reward, done, value):
            return Transition(
                observation=None, vm_index=0, pm_index=0, log_prob=0.0,
                value=value, reward=reward, done=done, vm_mask=None, pm_mask=None,
            )

        # Two envs interleaved [t0e0, t0e1, t1e0, t1e1] must equal two
        # independent single-env buffers.
        interleaved = RolloutBuffer(4)
        env0 = [transition(1.0, False, 0.5), transition(0.0, True, 0.25)]
        env1 = [transition(-1.0, False, 0.1), transition(2.0, False, 0.3)]
        for step in range(2):
            interleaved.add(env0[step])
            interleaved.add(env1[step])
        interleaved.compute_advantages(
            0.0, gamma=0.9, gae_lambda=0.8, normalize=False,
            num_envs=2, last_values=[0.0, 0.7],
        )

        solo0 = RolloutBuffer(2)
        for t in env0:
            solo0.add(transition(t.reward, t.done, t.value))
        solo0.compute_advantages(0.0, gamma=0.9, gae_lambda=0.8, normalize=False)
        solo1 = RolloutBuffer(2)
        for t in env1:
            solo1.add(transition(t.reward, t.done, t.value))
        solo1.compute_advantages(0.7, gamma=0.9, gae_lambda=0.8, normalize=False)

        assert env0[0].advantage == pytest.approx(solo0.transitions[0].advantage)
        assert env0[1].advantage == pytest.approx(solo0.transitions[1].advantage)
        assert env1[0].advantage == pytest.approx(solo1.transitions[0].advantage)
        assert env1[1].advantage == pytest.approx(solo1.transitions[1].advantage)

    def test_gae_rejects_ragged_chains(self):
        from repro.core.rollout import RolloutBuffer, Transition

        buffer = RolloutBuffer(3)
        for _ in range(3):
            buffer.add(
                Transition(
                    observation=None, vm_index=0, pm_index=0, log_prob=0.0,
                    value=0.0, reward=0.0, done=False, vm_mask=None, pm_mask=None,
                )
            )
        with pytest.raises(ValueError):
            buffer.compute_advantages(0.0, 0.99, 0.95, num_envs=2)
