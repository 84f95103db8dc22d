"""Deterministic experience collection and the inference-mode collection path.

Two trainers under one seed must collect BITWISE-identical rollouts, two
same-seed training runs must end with identical logs and weights, and no-grad
acting (how rollouts are collected) must sample what grad-tracking acting
samples.
"""

import contextlib
from functools import partial

import numpy as np
import pytest

from repro.cluster import ConstraintConfig
from repro.core import ModelConfig, PPOConfig, VMR2LAgent, VMR2LConfig
from repro.core.policy import TwoStagePolicy
from repro.core.ppo import PPOTrainer
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env import SyncVectorEnv, VMRescheduleEnv
from repro.nn import no_grad


@pytest.fixture(scope="module")
def snapshot():
    spec = ClusterSpec(name="async-ppo", num_pms=6, target_utilization=0.72, best_fit_fraction=0.3)
    return SnapshotGenerator(spec, seed=11).generate()


def factories(snapshot, count):
    config = ConstraintConfig(migration_limit=4)
    return [partial(VMRescheduleEnv, snapshot.copy(), config) for _ in range(count)]


def make_trainer(snapshot, env, seed=0):
    policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(seed))
    config = PPOConfig(rollout_steps=16, minibatch_size=8, update_epochs=1, seed=seed)
    return PPOTrainer(policy, env, config)


def assert_buffers_bitwise_equal(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs.transitions, rhs.transitions):
        assert (a.vm_index, a.pm_index) == (b.vm_index, b.pm_index)
        assert a.log_prob == b.log_prob
        assert a.value == b.value
        assert a.reward == b.reward
        assert a.done == b.done
        assert a.advantage == b.advantage
        assert a.return_ == b.return_
        np.testing.assert_array_equal(a.observation.pm_features, b.observation.pm_features)
        np.testing.assert_array_equal(a.observation.vm_features, b.observation.vm_features)
        np.testing.assert_array_equal(a.vm_mask, b.vm_mask)
        np.testing.assert_array_equal(a.pm_mask, b.pm_mask)


class TestDeterministicCollection:
    """The environment is deterministic and every draw comes from seeded
    generators, so one seed fixes the rollouts and the trained weights."""

    def test_same_seed_collects_identical_buffers(self, snapshot):
        first = make_trainer(snapshot, SyncVectorEnv(factories(snapshot, 4)))
        second = make_trainer(snapshot, SyncVectorEnv(factories(snapshot, 4)))
        assert_buffers_bitwise_equal(first.collect_rollout(), second.collect_rollout())
        # A second rollout continues from live episode state on both sides.
        assert_buffers_bitwise_equal(first.collect_rollout(), second.collect_rollout())

    def test_same_seed_trains_identical_agents(self, snapshot):
        def train():
            config = VMR2LConfig(
                ppo=PPOConfig(rollout_steps=8, minibatch_size=4, update_epochs=1),
                migration_limit=4,
            )
            agent = VMR2LAgent(config, seed=3)
            history = agent.train_on_states([snapshot], total_steps=16, num_envs=2)
            return agent, history

        def without_wall_clock(entries):
            return [dict(vars(entry), wall_clock_s=None) for entry in entries]

        (agent, history), (other, other_history) = train(), train()
        assert len(history) == 2
        assert without_wall_clock(history) == without_wall_clock(other_history)
        state, other_state = agent.policy.state_dict(), other.policy.state_dict()
        assert state.keys() == other_state.keys()
        for name in state:
            np.testing.assert_array_equal(state[name], other_state[name])

    @pytest.mark.parametrize("num_envs", [0, -1])
    def test_num_envs_must_be_positive(self, snapshot, num_envs):
        agent = VMR2LAgent(VMR2LConfig(migration_limit=4))
        with pytest.raises(ValueError, match="num_envs must be >= 1"):
            agent.train_on_states([snapshot], total_steps=8, num_envs=num_envs)


class TestInferenceRollouts:
    @pytest.mark.parametrize("num_envs", [1, 2])
    def test_no_grad_acting_matches_tracking(self, snapshot, num_envs):
        """Collection runs under no_grad without the entropy terms: the sampled
        actions and masks are those of a tracking forward, log-probs and values
        agree to 1e-12 (the no-grad attention kernel normalises the context,
        not the scores — one rounding reordered)."""
        policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))

        def collect(inference):
            venv = SyncVectorEnv(factories(snapshot, num_envs))
            rng = np.random.default_rng(0)
            observations = venv.reset()
            records = []
            for _ in range(8):
                with no_grad() if inference else contextlib.nullcontext():
                    outputs = policy.act_batch(
                        observations,
                        pm_mask_fns=[partial(venv.pm_action_mask, i) for i in range(num_envs)],
                        rng=rng,
                        compute_stats=not inference,
                    )
                    values = policy.value_of_batch(observations)
                records.append(
                    (
                        [(o.action, o.pm_mask.tolist()) for o in outputs],
                        [(o.log_prob, o.value) for o in outputs] + values,
                    )
                )
                observations, _, _, _ = venv.step([o.action for o in outputs])
            return records

        for (acts, nums), (ref_acts, ref_nums) in zip(
            collect(inference=True), collect(inference=False), strict=True
        ):
            assert acts == ref_acts
            np.testing.assert_allclose(
                np.hstack(nums), np.hstack(ref_nums), rtol=0, atol=1e-12
            )

    def test_inference_rollout_builds_no_graph(self, snapshot):
        trainer = make_trainer(snapshot, SyncVectorEnv(factories(snapshot, 2)))
        buffer = trainer.collect_rollout()
        # Stored transitions must be plain floats — nothing retaining a graph.
        for transition in buffer.transitions:
            assert isinstance(transition.log_prob, float)
            assert isinstance(transition.value, float)
        # ...and the update (which DOES need gradients) still works.
        stats = trainer.update(buffer)
        assert np.isfinite(stats["policy_loss"])
