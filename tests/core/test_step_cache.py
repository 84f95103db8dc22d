"""Incremental StepCache + observation deltas vs fresh recompute.

The step cache must be *exact*: over full multi-step episodes (including
auto-reset into a new episode), cached forwards match fresh featurize/encode
to ≤1e-10 and greedy plans are identical to fresh-recompute plans.  The
12-PM clusters change too large a share of their VM rows per step for the
block-0 VM↔VM update to pay, so ``TestVmAttentionUpdate`` runs ~300-VM
clusters, where it does, and checks through ``StepCache.stats()`` that it ran.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ConstraintConfig, Placement
from repro.cluster.machine import VirtualMachine
from repro.cluster.vm_types import VMType
from repro.core.agent import VMR2LAgent
from repro.core.config import ModelConfig, VMR2LConfig
from repro.core.features import build_feature_batch
from repro.core.policy import TwoStagePolicy
from repro.core.step_cache import StepCache
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env.vmr_env import VMRescheduleEnv
from repro.nn import no_grad


def _state(num_pms=12, seed=0, utilization=0.8):
    spec = ClusterSpec(
        name="step-cache",
        num_pms=num_pms,
        target_utilization=utilization,
        best_fit_fraction=0.3,
    )
    return SnapshotGenerator(spec, seed=seed).generate()


class TestIncrementalObservation:
    def test_incremental_builds_equal_fresh(self):
        """Every patched observation equals a from-scratch featurization."""
        from repro.cluster import ConstraintChecker
        from repro.env.observation import ObservationBuilder

        env = VMRescheduleEnv(_state(seed=3), ConstraintConfig(migration_limit=8))
        obs = env.reset()
        rng = np.random.default_rng(0)
        config = env.constraint_config
        deltas_seen = 0
        for step in range(16):
            fresh = ObservationBuilder(ConstraintChecker(config)).build(
                env.state, env.migrations_left()
            )
            assert np.array_equal(obs.pm_features, fresh.pm_features)
            assert np.array_equal(obs.vm_features, fresh.vm_features)
            assert np.array_equal(obs.vm_mask, fresh.vm_mask)
            assert np.array_equal(obs.vm_source_pm, fresh.vm_source_pm)
            deltas_seen += obs.delta.step_index > 0
            if not obs.vm_mask.any():
                break
            vm = rng.choice(np.flatnonzero(obs.vm_mask))
            pm = rng.choice(np.flatnonzero(env.pm_action_mask(vm)))
            obs, _, done, _ = env.step((vm, pm))
            if done:
                obs = env.reset()
                # Auto-reset copies the template: a fresh chain begins.
                assert obs.delta.step_index == 0
        assert deltas_seen > 0

    @given(
        st.lists(
            st.sampled_from(["migrate", "migrate", "remove", "place", "add", "copy", "group"]),
            min_size=1,
            max_size=20,
        ),
        st.integers(0, 2 ** 31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_delta_is_the_exact_diff(self, kinds, seed):
        """Every build's delta is the exact diff against the previous
        observation, and a chain restarts exactly when the SoA view changes."""
        from repro.env.observation import ObservationBuilder

        rng = np.random.default_rng(seed)
        state = _state(seed=seed % 4)
        builder = ObservationBuilder()
        previous, previous_view, chain_ids = None, None, set()
        for kind in [None] + kinds:
            state = _mutate(state, kind, rng)
            obs = builder.build(state, migrations_left=5)
            delta = obs.delta
            if state.arrays() is not previous_view:
                assert delta.step_index == 0 and delta.chain_id not in chain_ids
                assert delta.changed_pm_rows.tolist() == list(range(obs.num_pms))
                assert delta.changed_vm_rows.tolist() == list(range(obs.num_vms))
                assert delta.moved_vm_rows.size == delta.moved_pm_rows.size == 0
            else:
                assert delta.chain_id == previous.delta.chain_id
                assert delta.step_index == previous.delta.step_index + 1
                changed_pm = (obs.pm_features != previous.pm_features).any(axis=1)
                changed_vm = (obs.vm_features != previous.vm_features).any(axis=1)
                moved = np.flatnonzero(obs.vm_source_pm != previous.vm_source_pm)
                endpoints = set(previous.vm_source_pm[moved]) | set(obs.vm_source_pm[moved])
                assert delta.changed_pm_rows.tolist() == np.flatnonzero(changed_pm).tolist()
                assert delta.changed_vm_rows.tolist() == np.flatnonzero(changed_vm).tolist()
                assert delta.moved_vm_rows.tolist() == moved.tolist()
                assert delta.moved_pm_rows.tolist() == sorted(endpoints - {-1})
            chain_ids.add(delta.chain_id)
            previous, previous_view = obs, state.arrays()

    def test_structural_change_falls_back(self):
        """add_vm invalidates the SoA view; the next build starts a new chain."""
        env = VMRescheduleEnv(_state(seed=4), ConstraintConfig(migration_limit=6))
        obs = env.reset()
        vm = np.flatnonzero(obs.vm_mask)[0]
        pm = np.flatnonzero(env.pm_action_mask(vm))[0]
        obs, _, _, _ = env.step((vm, pm))
        assert obs.delta is not None and obs.delta.step_index == 1
        new_id = max(env.state.vms) + 1
        env.state.add_vm(VirtualMachine(vm_id=new_id, vm_type=VMType("t", 1, 4, 1)))
        rebuilt = env.builder.build(env.state, env.migrations_left())
        assert rebuilt.delta is None or rebuilt.delta.step_index == 0
        assert rebuilt.num_vms == obs.num_vms + 1


def _mutate(state, kind, rng):
    """Apply one random change of ``kind`` (a no-op when none exists) and
    return the state to build next: ``copy`` hands back a copy."""
    placed = state.placed_vm_ids()
    if kind == "copy":
        return state.copy()
    if kind == "add":
        new_id = max(state.vms) + 1
        state.add_vm(VirtualMachine(vm_id=new_id, vm_type=VMType("t", 1, 4, 1)))
    elif kind == "group" and len(placed) >= 2:
        for vm_id in rng.choice(placed, size=2, replace=False):
            state.set_anti_affinity_group(int(vm_id), int(rng.integers(3)))
    elif kind == "remove" and placed:
        state.remove_vm(int(placed[rng.integers(len(placed))]))
    elif kind == "place":
        unplaced = [vm_id for vm_id in state.sorted_vm_ids() if not state.vms[vm_id].is_placed]
        if unplaced:
            vm_id = int(unplaced[rng.integers(len(unplaced))])
            for pm_id in rng.permutation(state.sorted_pm_ids()):
                numas = state.feasible_numas(vm_id, int(pm_id))
                if numas:
                    state.place_vm(vm_id, Placement(int(pm_id), numas[0]))
                    break
    elif kind == "migrate" and placed:
        vm_id = int(placed[rng.integers(len(placed))])
        destinations = state.feasible_destination_pms(vm_id)
        if destinations:
            state.migrate_vm(vm_id, int(destinations[rng.integers(len(destinations))]))
    return state


class TestStepCacheEncoder:
    @pytest.mark.parametrize("model", [
        ModelConfig(),
        ModelConfig(extractor="vanilla"),
        # One head (the head split is a view, not a copy) through three blocks.
        ModelConfig(embed_dim=16, num_heads=1, num_blocks=3),
        ModelConfig(inference_dtype="float32"),
    ], ids=["sparse", "vanilla", "one_head_deep", "float32"])
    def test_cached_forward_matches_fresh_over_episodes(self, model):
        policy = TwoStagePolicy(model, rng=np.random.default_rng(0))
        env = VMRescheduleEnv(_state(seed=6), ConstraintConfig(migration_limit=5))
        obs = env.reset()
        cache = StepCache()
        rng = np.random.default_rng(2)
        episodes = 0
        # f64 parity is ≤1e-10; the float32 inference mode carries f32
        # epsilon (~1e-7 per op) through the stack instead.
        atol = 1e-10 if model.inference_dtype == "float64" else 1e-4
        with no_grad():
            for _ in range(14):  # spans ≥2 episodes (limit 5) incl. auto-reset
                _, cached = cache.forward(policy.extractor, [obs])
                fresh = policy.extractor(build_feature_batch(obs))
                np.testing.assert_allclose(
                    cached.vm_embeddings.data[0], fresh.vm_embeddings.data[0], rtol=0, atol=atol
                )
                np.testing.assert_allclose(
                    cached.pm_embeddings.data[0], fresh.pm_embeddings.data[0], rtol=0, atol=atol
                )
                np.testing.assert_allclose(
                    cached.vm_pm_scores[0], fresh.vm_pm_scores[0], rtol=0, atol=atol
                )
                if not obs.vm_mask.any():
                    break
                vm = rng.choice(np.flatnonzero(obs.vm_mask))
                pm = rng.choice(np.flatnonzero(env.pm_action_mask(vm)))
                obs, _, done, _ = env.step((vm, pm))
                if done:
                    obs = env.reset()
                    episodes += 1
        assert episodes >= 1
        assert cache.hits > 0

    def test_refuses_outside_inference(self):
        policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
        cache = StepCache()
        assert not cache.usable(policy.extractor)  # grad enabled
        with no_grad():
            assert cache.usable(policy.extractor)

    def test_stacked_matches_single(self):
        """One cached forward over several episodes equals per-row fresh forwards."""
        policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
        envs = [
            VMRescheduleEnv(_state(seed=7), ConstraintConfig(migration_limit=6))
            for _ in range(3)
        ]
        observations = [env.reset() for env in envs]
        cache = StepCache()
        rng = np.random.default_rng(3)
        with no_grad():
            for _ in range(6):
                _, stacked = cache.forward(policy.extractor, observations)
                for row, obs in enumerate(observations):
                    fresh = policy.extractor(build_feature_batch(obs))
                    np.testing.assert_allclose(
                        stacked.vm_embeddings.data[row],
                        fresh.vm_embeddings.data[0],
                        rtol=0, atol=1e-10,
                    )
                    np.testing.assert_allclose(
                        stacked.vm_pm_scores[row],
                        fresh.vm_pm_scores[0],
                        rtol=0, atol=1e-10,
                    )
                for index, env in enumerate(envs):
                    obs = observations[index]
                    if not obs.vm_mask.any():
                        observations[index] = env.reset()
                        continue
                    vm = rng.choice(np.flatnonzero(obs.vm_mask))
                    pm = rng.choice(np.flatnonzero(env.pm_action_mask(vm)))
                    next_obs, _, done, _ = env.step((vm, pm))
                    observations[index] = env.reset() if done else next_obs
        assert cache.hits > 0


class TestStepsThatMoveNoVm:
    """Penalty mode: an illegal action is penalized and leaves the placement
    as it was, so the next observation continues its chain with no VM moved
    (usually with no row changed at all).  These are the only cached steps
    whose tree layout equals the previous step's."""

    POLICY = ModelConfig(action_mode="penalty")

    def test_cached_embeddings_match_fresh(self):
        policy = TwoStagePolicy(self.POLICY, rng=np.random.default_rng(0))
        env = VMRescheduleEnv(
            _state(seed=5), ConstraintConfig(migration_limit=10), illegal_action_penalty=-5.0
        )
        obs = env.reset()
        cache = StepCache()
        rng = np.random.default_rng(1)
        unmoved = moved = 0
        with no_grad():
            for step in range(10):
                _, cached = cache.forward(policy.extractor, [obs])
                fresh = policy.extractor(build_feature_batch(obs))
                for name in ("vm_embeddings", "pm_embeddings"):
                    np.testing.assert_allclose(
                        getattr(cached, name).data, getattr(fresh, name).data,
                        rtol=0, atol=1e-10, err_msg=name,
                    )
                np.testing.assert_allclose(
                    cached.vm_pm_scores, fresh.vm_pm_scores, rtol=0, atol=1e-10
                )
                if obs.delta.step_index:
                    if obs.delta.moved_vm_rows.size:
                        moved += 1
                    else:
                        unmoved += 1
                # Even steps take an illegal destination, odd ones a legal one.
                vm = rng.choice(np.flatnonzero(obs.vm_mask))
                legal = env.pm_action_mask(vm)
                pm = rng.choice(np.flatnonzero(legal if step % 2 else ~legal))
                obs, _, done, info = env.step((vm, pm))
                assert info["last_step"].legal == bool(step % 2)
                if done:
                    break
        assert unmoved >= 4 and moved >= 4
        assert cache.hits == unmoved + moved

    def test_greedy_plans_identical_with_and_without_cache(self):
        from repro.core.risk_seeking import rollout_batch

        policy = TwoStagePolicy(self.POLICY, rng=np.random.default_rng(0))
        states = [_state(seed=seed) for seed in range(3)]

        def plans(step_cache):
            return rollout_batch(
                policy, states, [6] * len(states),
                [np.random.default_rng(0)] * len(states),
                greedy=True, step_cache=step_cache,
            )

        cache = StepCache()
        cached, fresh = plans(cache), plans(None)
        # Some greedy steps were illegal: they count as steps, not migrations.
        assert any(len(got.plan) < got.steps for got in cached)
        assert cache.hits > 0
        for got, expected in zip(cached, fresh):
            assert got.steps == expected.steps
            assert [(m.vm_id, m.dest_pm_id) for m in got.plan] == [
                (m.vm_id, m.dest_pm_id) for m in expected.plan
            ]
            assert got.final_objective == expected.final_objective


class TestVmAttentionUpdate:
    """Greedy episodes on ~300-VM clusters: cached steps update block 0's
    VM↔VM attention from the stored softmax state, misses and cluster-wide
    renormalisations run the full kernel, and nothing else changes."""

    NUM_PMS = 32  # 260–320 VMs at these seeds
    LIMIT = 12

    def _same_size_states(self, seeds):
        """Seeded clusters trimmed to one VM count, so they stack into one forward."""
        states = [_state(num_pms=self.NUM_PMS, seed=seed) for seed in seeds]
        num_vms = min(state.num_vms for state in states)
        assert num_vms >= 200
        for state in states:
            for vm_id in state.sorted_vm_ids()[num_vms:]:
                state.remove_vm_from_cluster(vm_id)
        return states, num_vms

    @pytest.mark.parametrize("seeds", [(0,), (0, 1, 4)], ids=["B=1", "B=3"])
    def test_embeddings_match_fresh_and_the_update_ran(self, seeds):
        policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
        states, num_vms = self._same_size_states(seeds)
        envs = [
            VMRescheduleEnv(state, ConstraintConfig(migration_limit=self.LIMIT))
            for state in states
        ]
        observations = [env.reset() for env in envs]
        cache = StepCache()
        rng = np.random.default_rng(0)
        resets = renormalised = steps = 0
        with no_grad():
            for _ in range(self.LIMIT + 4):  # past the limit: every env auto-resets
                steps += 1
                _, cached = cache.forward(policy.extractor, observations)
                for row, (env, obs) in enumerate(zip(envs, observations)):
                    fresh = policy.extractor(build_feature_batch(obs))
                    np.testing.assert_allclose(
                        cached.vm_embeddings.data[row], fresh.vm_embeddings.data[0],
                        rtol=0, atol=1e-10,
                    )
                    np.testing.assert_allclose(
                        cached.pm_embeddings.data[row], fresh.pm_embeddings.data[0],
                        rtol=0, atol=1e-10,
                    )
                    np.testing.assert_allclose(
                        cached.vm_pm_scores[row], fresh.vm_pm_scores[0], rtol=0, atol=1e-10
                    )
                    action = policy.act(
                        obs, env.pm_action_mask, rng, greedy=True, compute_stats=False
                    ).action
                    next_obs, _, done, _ = env.step(action)
                    if done:
                        next_obs = env.reset()
                        resets += 1
                    elif next_obs.delta.changed_vm_rows.size > num_vms // 2:
                        renormalised += 1
                    observations[row] = next_obs
        stats = cache.stats()
        assert resets >= len(seeds) and renormalised >= 1
        assert stats["hits"] + stats["misses"] == steps * len(seeds)
        assert stats["vv_updated"] + stats["vv_full"] == steps * len(seeds)
        # Every miss (first step, auto-reset) and every renormalised step ran
        # the full kernel — for the whole stack it was part of — and the
        # ordinary cached steps took the update.
        assert stats["vv_full"] >= stats["misses"] + renormalised
        assert stats["vv_updated"] >= steps * len(seeds) // 3
        assert stats["vv_updated"] <= stats["hits"] - renormalised

    @pytest.mark.parametrize("max_active", [1, 3], ids=["B=1", "B=3"])
    def test_plans_identical_with_and_without_cache(self, max_active):
        states, _ = self._same_size_states((0, 1, 4))
        agent = VMR2LAgent(seed=0)
        cached = agent.plan_batch(
            states, self.LIMIT, greedy=True, seed=0, max_active=max_active,
            use_step_cache=True,
        )
        fresh = agent.plan_batch(
            states, self.LIMIT, greedy=True, seed=0, max_active=max_active,
            use_step_cache=False,
        )
        for got, expected in zip(cached, fresh):
            assert len(got.plan) == self.LIMIT
            assert [(m.vm_id, m.dest_pm_id) for m in got.plan] == [
                (m.vm_id, m.dest_pm_id) for m in expected.plan
            ]
            assert got.info["final_objective"] == expected.info["final_objective"]


class TestStepCachePlans:
    @pytest.mark.parametrize("pm_counts", [(12, 12, 12, 12), (12, 9, 12, 9)],
                             ids=["same_size", "mixed_size"])
    def test_plan_batch_plans_identical(self, pm_counts):
        states = [_state(num_pms=count, seed=s) for s, count in enumerate(pm_counts)]
        agent = VMR2LAgent(seed=0)
        cached = agent.plan_batch(
            states, migration_limits=5, greedy=True, seed=0, max_active=2,
            use_step_cache=True,
        )
        fresh = agent.plan_batch(
            states, migration_limits=5, greedy=True, seed=0, max_active=2,
            use_step_cache=False,
        )
        for got, expected in zip(cached, fresh):
            assert [(m.vm_id, m.dest_pm_id) for m in got.plan] == [
                (m.vm_id, m.dest_pm_id) for m in expected.plan
            ]
            assert got.info["final_objective"] == pytest.approx(
                expected.info["final_objective"]
            )

    def test_plan_batch_float32_identical(self):
        states = [_state(seed=s) for s in range(2)]
        config = VMR2LConfig(model=ModelConfig(inference_dtype="float32"))
        agent = VMR2LAgent(config=config, seed=0)
        cached = agent.plan_batch(states, 4, greedy=True, seed=0, use_step_cache=True)
        fresh = agent.plan_batch(states, 4, greedy=True, seed=0, use_step_cache=False)
        for got, expected in zip(cached, fresh):
            assert [(m.vm_id, m.dest_pm_id) for m in got.plan] == [
                (m.vm_id, m.dest_pm_id) for m in expected.plan
            ]

    def test_rollout_with_cache(self):
        from repro.core.risk_seeking import rollout_batch

        state = _state(seed=9)
        policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
        fresh = rollout_batch(
            policy, [state], [5], [np.random.default_rng(0)], greedy=True
        )[0]
        cached = rollout_batch(
            policy, [state], [5], [np.random.default_rng(0)], greedy=True,
            step_cache=StepCache(),
        )[0]
        assert [(m.vm_id, m.dest_pm_id) for m in cached.plan] == [
            (m.vm_id, m.dest_pm_id) for m in fresh.plan
        ]
        assert cached.final_objective == pytest.approx(fresh.final_objective)
