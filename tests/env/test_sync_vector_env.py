"""Tests for SyncVectorEnv: lock-step stepping, auto-reset and mask access.

The vector env must behave exactly like its environments stepped one by one:
PPO's rollouts (and the pinned training logs) depend on it.
"""

from functools import partial

import numpy as np
import pytest

from repro.cluster import ConstraintConfig
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env import SyncVectorEnv, VMRescheduleEnv


@pytest.fixture(scope="module")
def snapshot():
    spec = ClusterSpec(name="vector", num_pms=6, target_utilization=0.72, best_fit_fraction=0.3)
    return SnapshotGenerator(spec, seed=11).generate()


@pytest.fixture(scope="module")
def small_snapshot():
    spec = ClusterSpec(name="vector-small", num_pms=5, target_utilization=0.6, best_fit_fraction=0.3)
    return SnapshotGenerator(spec, seed=3).generate()


def factories(snapshot, count, migration_limit=4):
    config = ConstraintConfig(migration_limit=migration_limit)
    return [partial(VMRescheduleEnv, snapshot.copy(), config) for _ in range(count)]


def assert_observations_equal(lhs, rhs):
    np.testing.assert_array_equal(lhs.pm_features, rhs.pm_features)
    np.testing.assert_array_equal(lhs.vm_features, rhs.vm_features)
    np.testing.assert_array_equal(lhs.vm_source_pm, rhs.vm_source_pm)
    np.testing.assert_array_equal(lhs.vm_mask, rhs.vm_mask)
    assert lhs.vm_ids == rhs.vm_ids
    assert lhs.pm_ids == rhs.pm_ids
    assert lhs.migrations_left == rhs.migrations_left


def legal_actions(mask_of, observations, pick=0):
    """One legal ``(vm, pm)`` per env: the ``pick``-th movable VM, its first legal PM."""
    actions = []
    for index, obs in enumerate(observations):
        movable = np.flatnonzero(obs.vm_mask)
        vm_index = int(movable[pick % len(movable)])
        pm_index = int(np.flatnonzero(mask_of(index, vm_index))[0])
        actions.append((vm_index, pm_index))
    return actions


class RecordingEnv:
    """Minimal env that records the calls it receives."""

    def __init__(self, name, log, done_at=None):
        self.name = name
        self.log = log
        self.done_at = done_at
        self.steps = 0
        log.append(("build", name))

    def reset(self):
        self.steps = 0
        self.log.append(("reset", self.name))
        return (self.name, "first")

    def step(self, action):
        self.steps += 1
        self.log.append(("step", self.name, action))
        done = self.done_at is not None and self.steps >= self.done_at
        self.last_info = {"steps": self.steps}
        return (self.name, self.steps), float(self.steps), done, self.last_info

    def close(self):
        self.log.append(("close", self.name))


class TestConstruction:
    def test_empty_factories_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SyncVectorEnv([])

    def test_each_factory_built_once_in_order(self):
        log = []
        venv = SyncVectorEnv([partial(RecordingEnv, name, log) for name in "abc"])
        assert log == [("build", "a"), ("build", "b"), ("build", "c")]
        assert venv.num_envs == 3
        assert [env.name for env in venv.envs] == ["a", "b", "c"]

    def test_envs_are_distinct_instances(self, snapshot):
        venv = SyncVectorEnv(factories(snapshot, 2))
        assert venv.envs[0] is not venv.envs[1]
        venv.reset()
        assert venv.envs[0].state is not venv.envs[1].state


class TestResetStep:
    @pytest.mark.parametrize("num_envs", [1, 2, 3])
    def test_reset_matches_individual_envs(self, snapshot, num_envs):
        venv = SyncVectorEnv(factories(snapshot, num_envs))
        singles = [fn() for fn in factories(snapshot, num_envs)]
        observations = venv.reset()
        assert len(observations) == num_envs
        for vector_obs, env in zip(observations, singles):
            assert_observations_equal(vector_obs, env.reset())

    @pytest.mark.parametrize("pick", [0, 1])
    def test_step_matches_individual_envs(self, snapshot, pick):
        venv = SyncVectorEnv(factories(snapshot, 2))
        singles = [fn() for fn in factories(snapshot, 2)]
        observations = venv.reset()
        for env in singles:
            env.reset()
        for _ in range(3):
            actions = legal_actions(venv.pm_action_mask, observations, pick=pick)
            observations, rewards, dones, infos = venv.step(actions)
            for index, (env, action) in enumerate(zip(singles, actions)):
                obs, reward, done, info = env.step(action)
                assert rewards[index] == reward
                assert dones[index] == done
                assert_observations_equal(observations[index], obs)
                assert infos[index]["fragment_rate"] == info["fragment_rate"]
                assert infos[index]["steps_taken"] == info["steps_taken"]

    def test_step_returns_typed_arrays(self, snapshot):
        venv = SyncVectorEnv(factories(snapshot, 3))
        observations = venv.reset()
        observations, rewards, dones, infos = venv.step(
            legal_actions(venv.pm_action_mask, observations)
        )
        assert rewards.shape == (3,) and rewards.dtype == np.float64
        assert dones.shape == (3,) and dones.dtype == np.bool_
        assert len(observations) == 3 and len(infos) == 3

    def test_actions_reach_envs_in_order(self):
        log = []
        venv = SyncVectorEnv([partial(RecordingEnv, name, log) for name in "ab"])
        venv.reset()
        log.clear()
        venv.step([("act", 0), ("act", 1)])
        assert log == [("step", "a", ("act", 0)), ("step", "b", ("act", 1))]

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_wrong_action_count_rejected(self, snapshot, count):
        venv = SyncVectorEnv(factories(snapshot, 2))
        observations = venv.reset()
        action = legal_actions(venv.pm_action_mask, observations)[0]
        with pytest.raises(ValueError, match="expected 2 actions"):
            venv.step([action] * count)

    def test_rejected_step_leaves_envs_untouched(self, snapshot):
        venv = SyncVectorEnv(factories(snapshot, 2))
        observations = venv.reset()
        with pytest.raises(ValueError):
            venv.step(legal_actions(venv.pm_action_mask, observations)[:1])
        assert [env.steps_taken for env in venv.envs] == [0, 0]

    def test_env_error_propagates_unchanged(self, snapshot):
        venv = SyncVectorEnv(factories(snapshot, 2))
        venv.reset()
        with pytest.raises(IndexError, match="vm_index"):
            venv.step([(10 ** 6, 0)] * 2)

    def test_same_factories_give_same_trajectory(self, snapshot):
        def trajectory():
            venv = SyncVectorEnv(factories(snapshot, 2, migration_limit=2))
            observations = venv.reset()
            rewards_seen, obs_seen = [], []
            for _ in range(5):
                observations, rewards, _, _ = venv.step(
                    legal_actions(venv.pm_action_mask, observations)
                )
                rewards_seen.append(rewards)
                obs_seen.append(observations)
            return rewards_seen, obs_seen

        (lhs_rewards, lhs_obs), (rhs_rewards, rhs_obs) = trajectory(), trajectory()
        for lhs, rhs in zip(lhs_rewards, rhs_rewards):
            np.testing.assert_array_equal(lhs, rhs)
        for lhs_step, rhs_step in zip(lhs_obs, rhs_obs):
            for lhs, rhs in zip(lhs_step, rhs_step):
                assert_observations_equal(lhs, rhs)


class TestAutoReset:
    def test_done_env_reports_terminal_observation(self, snapshot):
        venv = SyncVectorEnv(factories(snapshot, 1, migration_limit=1))
        observations = venv.reset()
        next_obs, _, dones, infos = venv.step(legal_actions(venv.pm_action_mask, observations))
        assert dones[0]
        # The returned observation is the NEXT episode's first one...
        assert next_obs[0].migrations_left == 1
        # ...and the terminal observation rides along in the info dict.
        assert infos[0]["terminal_observation"].migrations_left == 0

    def test_next_episode_starts_from_the_template(self, snapshot):
        venv = SyncVectorEnv(factories(snapshot, 1, migration_limit=1))
        first = venv.reset()
        next_obs, _, _, _ = venv.step(legal_actions(venv.pm_action_mask, first))
        assert_observations_equal(next_obs[0], first[0])

    def test_only_the_finished_env_resets(self, snapshot):
        config_short = ConstraintConfig(migration_limit=1)
        config_long = ConstraintConfig(migration_limit=3)
        venv = SyncVectorEnv([
            partial(VMRescheduleEnv, snapshot.copy(), config_short),
            partial(VMRescheduleEnv, snapshot.copy(), config_long),
        ])
        observations = venv.reset()
        observations, _, dones, infos = venv.step(legal_actions(venv.pm_action_mask, observations))
        assert dones.tolist() == [True, False]
        assert "terminal_observation" in infos[0]
        assert "terminal_observation" not in infos[1]
        assert observations[1].migrations_left == 2
        assert [env.steps_taken for env in venv.envs] == [0, 1]

    def test_terminal_info_is_a_copy(self):
        log = []
        venv = SyncVectorEnv([partial(RecordingEnv, "a", log, done_at=1)])
        venv.reset()
        observations, rewards, dones, infos = venv.step([None])
        assert dones[0] and rewards[0] == 1.0
        assert infos[0]["terminal_observation"] == ("a", 1)
        assert infos[0]["steps"] == 1
        assert infos[0] is not venv.envs[0].last_info
        assert "terminal_observation" not in venv.envs[0].last_info
        assert observations[0] == ("a", "first")
        assert log[-1] == ("reset", "a")


class TestMasks:
    def test_pm_action_mask_matches_env(self, snapshot):
        venv = SyncVectorEnv(factories(snapshot, 3))
        observations = venv.reset()
        for index, obs in enumerate(observations):
            for vm_index in np.flatnonzero(obs.vm_mask)[:3]:
                np.testing.assert_array_equal(
                    venv.pm_action_mask(index, vm_index),
                    venv.envs[index].pm_action_mask(int(vm_index)),
                )

    def test_pm_action_mask_accepts_numpy_indices(self, snapshot):
        venv = SyncVectorEnv(factories(snapshot, 1))
        observations = venv.reset()
        vm_index = np.int64(np.flatnonzero(observations[0].vm_mask)[0])
        np.testing.assert_array_equal(
            venv.pm_action_mask(0, vm_index), venv.pm_action_mask(0, int(vm_index))
        )

    def test_pm_action_mask_follows_its_own_env(self, snapshot):
        venv = SyncVectorEnv(factories(snapshot, 2))
        observations = venv.reset()
        actions = legal_actions(venv.pm_action_mask, observations)
        venv.step([actions[0], legal_actions(venv.pm_action_mask, observations, pick=1)[1]])
        for index in range(2):
            vm_index = actions[0][0]
            np.testing.assert_array_equal(
                venv.pm_action_mask(index, vm_index),
                venv.envs[index].pm_action_mask(vm_index),
            )

    def test_joint_action_masks_match_envs(self, snapshot):
        venv = SyncVectorEnv(factories(snapshot, 2))
        venv.reset()
        masks = venv.joint_action_masks()
        assert len(masks) == 2
        for mask, env in zip(masks, venv.envs):
            np.testing.assert_array_equal(mask, env.joint_action_mask())

    def test_joint_mask_rows_are_stage_two_masks(self, snapshot):
        venv = SyncVectorEnv(factories(snapshot, 1))
        observations = venv.reset()
        joint = venv.joint_action_masks()[0]
        assert joint.shape == (observations[0].num_vms, observations[0].num_pms)
        for vm_index in np.flatnonzero(observations[0].vm_mask):
            np.testing.assert_array_equal(joint[vm_index], venv.pm_action_mask(0, vm_index))


class TestMixedSizes:
    def test_envs_of_different_sizes_step_together(self, snapshot, small_snapshot):
        config = ConstraintConfig(migration_limit=3)
        venv = SyncVectorEnv([
            partial(VMRescheduleEnv, small_snapshot.copy(), config),
            partial(VMRescheduleEnv, snapshot.copy(), config),
        ])
        observations = venv.reset()
        assert observations[0].num_vms == small_snapshot.num_vms
        assert observations[1].num_vms == snapshot.num_vms
        observations, rewards, _, _ = venv.step(legal_actions(venv.pm_action_mask, observations))
        assert rewards.shape == (2,)
        assert observations[1].num_pms == snapshot.num_pms

    def test_mixed_size_joint_masks_keep_their_shapes(self, snapshot, small_snapshot):
        config = ConstraintConfig(migration_limit=3)
        venv = SyncVectorEnv([
            partial(VMRescheduleEnv, small_snapshot.copy(), config),
            partial(VMRescheduleEnv, snapshot.copy(), config),
        ])
        venv.reset()
        shapes = [mask.shape for mask in venv.joint_action_masks()]
        assert shapes == [
            (small_snapshot.num_vms, small_snapshot.num_pms),
            (snapshot.num_vms, snapshot.num_pms),
        ]


class TestClose:
    def test_close_reaches_every_env(self):
        log = []
        venv = SyncVectorEnv([partial(RecordingEnv, name, log) for name in "ab"])
        venv.close()
        assert [entry for entry in log if entry[0] == "close"] == [("close", "a"), ("close", "b")]

    def test_close_skips_envs_without_close(self, snapshot):
        log = []
        venv = SyncVectorEnv([*factories(snapshot, 1), partial(RecordingEnv, "b", log)])
        assert not hasattr(venv.envs[0], "close")
        venv.close()
        assert log[-1] == ("close", "b")
