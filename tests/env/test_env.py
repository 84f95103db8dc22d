"""Tests for the Gym-style rescheduling environment, observations and objectives."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterState,
    ConstraintConfig,
    PhysicalMachine,
    Placement,
    PMType,
    VirtualMachine,
    VMTypeCatalog,
)
from repro.datasets import SnapshotGenerator, small_spec
from repro.env import (
    FragmentRateObjective,
    MigrationMinimizationObjective,
    MixedFragmentObjective,
    MixedResourceObjective,
    ObservationBuilder,
    PM_FEATURE_DIM,
    RecordEpisodeStatistics,
    RewardScaling,
    SyncVectorEnv,
    TimeLimit,
    VMRescheduleEnv,
    VM_FEATURE_DIM,
    make_objective,
)

from oracles import dense_tree_mask
from repro.env.spaces import Box, Discrete, MultiDiscrete, Tuple as TupleSpace

CATALOG = VMTypeCatalog.main()


def build_state():
    """Two 64-core PMs with fragments that a single migration can fix."""
    pms = [PhysicalMachine(pm_id=i, pm_type=PMType("pm64", cpu=64, memory=256)) for i in range(3)]
    state = ClusterState(pms=pms, vms=[])
    def add(vm_id, name, pm, numa):
        state.add_vm(VirtualMachine(vm_id=vm_id, vm_type=CATALOG.get(name)), Placement(pm_id=pm, numa_id=numa))
    add(0, "4xlarge", 0, 0)
    add(1, "xlarge", 0, 0)
    add(2, "2xlarge", 0, 1)
    add(3, "4xlarge", 1, 0)
    add(4, "2xlarge", 1, 1)
    add(5, "xlarge", 2, 0)
    return state


@pytest.fixture
def env():
    return VMRescheduleEnv(build_state(), ConstraintConfig(migration_limit=5))


class TestSpaces:
    def test_discrete(self):
        space = Discrete(4, seed=0)
        assert space.contains(space.sample())
        assert not space.contains(7)
        with pytest.raises(ValueError):
            Discrete(0)

    def test_box(self):
        space = Box(0.0, 1.0, shape=(2, 3), seed=0)
        assert space.sample().shape == (2, 3)
        assert space.contains(np.full((2, 3), 0.5))
        assert not space.contains(np.full((2, 3), 2.0))

    def test_multidiscrete(self):
        space = MultiDiscrete([3, 5], seed=0)
        assert space.contains(space.sample())
        assert not space.contains([3, 0])

    def test_tuple(self):
        space = TupleSpace((Discrete(3), Discrete(4)), seed=0)
        sample = space.sample()
        assert space.contains(sample)
        assert len(space) == 2


class TestObservationBuilder:
    def test_feature_shapes_match_paper(self):
        state = build_state()
        obs = ObservationBuilder().build(state, migrations_left=10)
        assert obs.pm_features.shape == (3, PM_FEATURE_DIM)
        assert obs.vm_features.shape == (6, VM_FEATURE_DIM)
        assert PM_FEATURE_DIM == 8
        assert VM_FEATURE_DIM == 14

    def test_features_are_normalized(self):
        state = build_state()
        obs = ObservationBuilder().build(state, migrations_left=10)
        assert obs.pm_features.min() >= -1e-9
        assert obs.pm_features.max() <= 1.0 + 1e-9
        assert obs.vm_features.min() >= -1e-9
        assert obs.vm_features.max() <= 1.0 + 1e-9

    def test_source_pm_indices(self):
        state = build_state()
        obs = ObservationBuilder().build(state, migrations_left=10)
        assert obs.vm_source_pm.tolist() == [0, 0, 0, 1, 1, 2]

    def test_tree_membership_matrix(self):
        """The host rows carry the V×P tree membership: the VM→PM block of
        the tree mask built from them puts each VM in its host's tree only."""
        state = build_state()
        obs = ObservationBuilder().build(state, migrations_left=10)
        membership = dense_tree_mask(obs.vm_source_pm, obs.num_pms)[obs.num_pms :, : obs.num_pms]
        assert membership.shape == (6, 3)
        assert membership[0, 0] and membership[5, 2]
        assert membership.sum() == 6

    def test_vm_mask_all_movable(self):
        state = build_state()
        obs = ObservationBuilder().build(state, migrations_left=10)
        assert obs.vm_mask.all()

    def test_pm_mask_excludes_source(self):
        state = build_state()
        builder = ObservationBuilder()
        mask = builder.pm_mask(state, vm_id=0)
        assert not mask[0]  # source PM excluded
        assert mask[1] or mask[2]


class TestEnvBasics:
    def test_reset_returns_observation(self, env):
        obs = env.reset()
        assert obs.num_vms == 6
        assert obs.num_pms == 3
        assert env.migrations_left() == 5

    def test_step_before_reset_raises(self, env):
        with pytest.raises(RuntimeError):
            env.step((0, 1))

    def test_step_executes_migration_and_updates_state(self, env):
        env.reset()
        mask = env.pm_action_mask(1)  # VM 1 is the 4-core VM on PM0
        dest = int(np.argmax(mask))
        _, reward, done, info = env.step((1, dest))
        assert info["steps_taken"] == 1
        assert env.state.vms[1].pm_id == sorted(env.state.pms)[dest]
        assert np.isfinite(reward)

    def test_reward_matches_manual_fragment_computation(self):
        state = build_state()
        env = VMRescheduleEnv(state, ConstraintConfig(migration_limit=5))
        env.reset()
        objective = env.objective
        vm_ids = sorted(env.state.vms)
        pm_ids = sorted(env.state.pms)
        vm_index = 1
        source_pm = env.state.vms[vm_ids[vm_index]].pm_id
        mask = env.pm_action_mask(vm_index)
        dest_index = int(np.argmax(mask))
        dest_pm = pm_ids[dest_index]
        before_src = objective.pm_score(env.state, source_pm)
        before_dst = objective.pm_score(env.state, dest_pm)
        expected_state = env.state.copy()
        expected_state.migrate_vm(vm_ids[vm_index], dest_pm)
        after_src = objective.pm_score(expected_state, source_pm)
        after_dst = objective.pm_score(expected_state, dest_pm)
        expected_reward = (before_src - after_src) + (before_dst - after_dst)
        _, reward, _, _ = env.step((vm_index, dest_index))
        assert reward == pytest.approx(expected_reward)

    def test_illegal_action_raises_by_default(self, env):
        env.reset()
        vm_index = 0
        source_pm_index = sorted(env.state.pms).index(env.state.vms[sorted(env.state.vms)[vm_index]].pm_id)
        with pytest.raises(ValueError):
            env.step((vm_index, source_pm_index))

    def test_illegal_action_penalty_mode(self):
        env = VMRescheduleEnv(
            build_state(), ConstraintConfig(migration_limit=3), illegal_action_penalty=-5.0
        )
        env.reset()
        fr_before = env.fragment_rate()
        _, reward, _, info = env.step((0, 0))  # destination == source -> illegal
        assert reward == -5.0
        assert env.fragment_rate() == pytest.approx(fr_before)
        assert not info["last_step"].legal

    def test_episode_terminates_at_mnl(self, env):
        env.reset()
        done = False
        steps = 0
        while not done:
            mask = env.vm_action_mask()
            vm_index = int(np.argmax(mask))
            pm_mask = env.pm_action_mask(vm_index)
            if not pm_mask.any():
                break
            _, _, done, _ = env.step((vm_index, int(np.argmax(pm_mask))))
            steps += 1
        assert steps <= 5

    def test_reset_restores_template(self, env):
        env.reset()
        mask = env.pm_action_mask(1)
        env.step((1, int(np.argmax(mask))))
        fr_after_step = env.fragment_rate()
        obs = env.reset()
        assert env.steps_taken == 0
        assert env.fragment_rate() == pytest.approx(env.initial_metric())
        assert env.fragment_rate() != pytest.approx(fr_after_step) or True

    def test_out_of_range_action_raises(self, env):
        env.reset()
        with pytest.raises(IndexError):
            env.step((99, 0))
        with pytest.raises(IndexError):
            env.step((0, 99))

    def test_executed_plan_tracks_legal_steps(self, env):
        env.reset()
        mask = env.pm_action_mask(1)
        env.step((1, int(np.argmax(mask))))
        plan = env.executed_plan()
        assert len(plan) == 1

    def test_joint_action_mask_shape(self, env):
        env.reset()
        joint = env.joint_action_mask()
        assert joint.shape == (6, 3)

    def test_state_sampler_provides_new_states(self):
        generator = SnapshotGenerator(small_spec(), seed=0)
        env = VMRescheduleEnv(
            state_sampler=generator.generate, constraint_config=ConstraintConfig(migration_limit=3)
        )
        obs1 = env.reset()
        obs2 = env.reset()
        assert obs1.num_vms > 0 and obs2.num_vms > 0

    def test_render_contains_fr(self, env):
        env.reset()
        assert "FR=" in env.render()


class TestObjectives:
    def test_factory(self):
        assert isinstance(make_objective("fragment_rate"), FragmentRateObjective)
        assert isinstance(make_objective("min_migrations", fr_goal=0.4), MigrationMinimizationObjective)
        with pytest.raises(KeyError):
            make_objective("unknown")

    def test_fragment_rate_objective_metric(self):
        state = build_state()
        objective = FragmentRateObjective()
        assert objective.episode_metric(state) == pytest.approx(state.fragment_rate())

    @pytest.mark.parametrize("num_pms", [8, 40, 120])
    def test_metrics_read_the_state_reductions_exactly(self, num_pms):
        """On clusters generated like the benchmark's (``benchmarks/e2e/inputs.py``),
        every objective reports exactly what ``ClusterState`` reduces from its SoA
        page — the value the benchmark's checker replays ``final_objective``
        against — and the object-walking functions stay its oracle."""
        from repro.cluster import fragmentation
        from repro.datasets import ClusterSpec

        spec = ClusterSpec(
            name="bench-like", num_pms=num_pms, target_utilization=0.75, best_fit_fraction=0.3
        )
        state = SnapshotGenerator(spec, seed=41).generate()
        rng = np.random.default_rng(0)
        for _ in range(4):  # drift off the generator's placement, as requests do
            vm_id = int(rng.choice(state.placed_vm_ids()))
            destinations = state.feasible_destination_pms(vm_id)
            if destinations:
                state.migrate_vm(vm_id, int(rng.choice(destinations)))
        fr16, fr64 = state.fragment_rate(16), state.fragment_rate(64)
        mem64 = state.memory_fragment_rate(64.0)
        assert FragmentRateObjective().episode_metric(state) == fr16
        assert FragmentRateObjective(x_cores=64).episode_metric(state) == fr64
        assert MigrationMinimizationObjective().episode_metric(state) == fr16
        assert MixedFragmentObjective(weight=0.25).episode_metric(state) == 0.75 * fr16 + 0.25 * fr64
        assert MixedFragmentObjective().component_metrics(state) == {"fr16": fr16, "fr64": fr64}
        assert MixedResourceObjective(weight=0.25).episode_metric(state) == 0.75 * fr16 + 0.25 * mem64
        assert MixedResourceObjective().component_metrics(state) == {"fr16": fr16, "mem64": mem64}
        pms = list(state.pms.values())
        assert fr16 == pytest.approx(fragmentation.fragment_rate(pms, 16), abs=1e-12)
        assert mem64 == pytest.approx(fragmentation.memory_fragment_rate(pms, 64.0), abs=1e-12)

    def test_min_migration_objective_rewards(self):
        state = build_state()
        objective = MigrationMinimizationObjective(fr_goal=1.0)  # trivially satisfied
        assert objective.goal_reached(state)
        reward = objective.step_reward(0.2, 0.1, 0.3, 0.2, state)
        assert reward == pytest.approx(10.0 + 0.2)

    def test_min_migration_objective_penalty_when_unmet(self):
        state = build_state()
        objective = MigrationMinimizationObjective(fr_goal=0.0)
        assert not objective.goal_reached(state)
        reward = objective.step_reward(0.2, 0.2, 0.2, 0.2, state)
        assert reward == pytest.approx(-1.0)

    def test_min_migration_episode_ends_at_goal(self):
        state = build_state()
        goal = state.fragment_rate() - 1e-9  # any improvement reaches the goal
        env = VMRescheduleEnv(
            state,
            ConstraintConfig(migration_limit=10),
            objective=MigrationMinimizationObjective(fr_goal=goal),
        )
        env.reset()
        mask = env.pm_action_mask(1)
        _, _, done, info = env.step((1, int(np.argmax(mask))))
        if info["objective"] <= goal:
            assert done

    def test_mixed_fragment_objective_components(self):
        state = build_state()
        objective = MixedFragmentObjective(weight=0.4)
        components = objective.component_metrics(state)
        assert set(components) == {"fr16", "fr64"}
        value = objective.episode_metric(state)
        assert value == pytest.approx(0.6 * components["fr16"] + 0.4 * components["fr64"])

    def test_mixed_resource_objective_components(self):
        state = build_state()
        objective = MixedResourceObjective(weight=0.3)
        components = objective.component_metrics(state)
        assert set(components) == {"fr16", "mem64"}
        value = objective.episode_metric(state)
        assert value == pytest.approx(0.7 * components["fr16"] + 0.3 * components["mem64"])

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            MixedFragmentObjective(weight=1.2)
        with pytest.raises(ValueError):
            MixedResourceObjective(weight=-0.1)
        with pytest.raises(ValueError):
            MigrationMinimizationObjective(fr_goal=2.0)


class TestWrappersAndVectorEnv:
    def _run_episode(self, env):
        env.reset()
        done = False
        while not done:
            mask = env.vm_action_mask()
            if not mask.any():
                break
            vm_index = int(np.argmax(mask))
            pm_mask = env.pm_action_mask(vm_index)
            if not pm_mask.any():
                break
            _, _, done, info = env.step((vm_index, int(np.argmax(pm_mask))))
        return info

    def test_record_episode_statistics(self):
        env = RecordEpisodeStatistics(VMRescheduleEnv(build_state(), ConstraintConfig(migration_limit=3)))
        info = self._run_episode(env)
        assert "episode" in info
        assert env.episode_history
        assert env.episode_history[-1].length <= 3
        assert np.isfinite(env.mean_return())

    def test_reward_scaling(self):
        base = VMRescheduleEnv(build_state(), ConstraintConfig(migration_limit=3))
        scaled = RewardScaling(VMRescheduleEnv(build_state(), ConstraintConfig(migration_limit=3)), scale=2.0)
        base.reset(), scaled.reset()
        mask = base.pm_action_mask(1)
        action = (1, int(np.argmax(mask)))
        _, r1, _, _ = base.step(action)
        _, r2, _, _ = scaled.step(action)
        assert r2 == pytest.approx(2.0 * r1)

    def test_time_limit(self):
        env = TimeLimit(VMRescheduleEnv(build_state(), ConstraintConfig(migration_limit=50)), max_steps=1)
        env.reset()
        mask = env.pm_action_mask(1)
        _, _, done, info = env.step((1, int(np.argmax(mask))))
        assert done
        assert info.get("truncated")

    def test_wrapper_validation(self):
        env = VMRescheduleEnv(build_state())
        with pytest.raises(ValueError):
            RewardScaling(env, scale=0.0)
        with pytest.raises(ValueError):
            TimeLimit(env, max_steps=0)
        with pytest.raises(ValueError):
            RecordEpisodeStatistics(env, history_size=0)

    def test_sync_vector_env(self):
        def factory():
            return VMRescheduleEnv(build_state(), ConstraintConfig(migration_limit=2))

        venv = SyncVectorEnv([factory, factory])
        observations = venv.reset()
        assert len(observations) == 2
        masks = [venv.pm_action_mask(index, 1) for index in range(venv.num_envs)]
        actions = [(1, int(np.argmax(mask))) for mask in masks]
        observations, rewards, dones, infos = venv.step(actions)
        assert rewards.shape == (2,)
        assert len(observations) == 2

    def test_sync_vector_env_validation(self):
        with pytest.raises(ValueError):
            SyncVectorEnv([])
        venv = SyncVectorEnv([lambda: VMRescheduleEnv(build_state())])
        venv.reset()
        with pytest.raises(ValueError):
            venv.step([(0, 1), (0, 1)])
