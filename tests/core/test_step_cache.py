"""Incremental StepCache + incremental featurization vs fresh recompute.

The step cache must be *exact*: over full multi-step episodes (including
auto-reset into a new episode), cached forwards match fresh featurize/encode
to ≤1e-10 and greedy plans are identical to fresh-recompute plans.  The
12-PM clusters change too large a share of their VM rows per step for the
block-0 VM↔VM update to pay, so ``TestVmAttentionUpdate`` runs ~300-VM
clusters, where it does, and checks through ``StepCache.stats()`` that it ran.
"""

import numpy as np
import pytest

from repro.cluster import ConstraintConfig
from repro.core.agent import VMR2LAgent
from repro.core.config import ModelConfig, VMR2LConfig
from repro.core.features import build_feature_batch, patch_feature_batch
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
        config = env.builder.checker.config
        deltas_seen = 0
        for step in range(16):
            fresh = ObservationBuilder(ConstraintChecker(config)).build(
                env.state, env.migrations_left()
            )
            assert np.array_equal(obs.pm_features, fresh.pm_features)
            assert np.array_equal(obs.vm_features, fresh.vm_features)
            assert np.array_equal(obs.vm_mask, fresh.vm_mask)
            assert np.array_equal(obs.vm_source_pm, fresh.vm_source_pm)
            if obs.delta is not None and obs.delta.step_index > 0:
                deltas_seen += 1
                # The journalled move must appear in the delta's moved rows.
                assert obs.delta.moved_vm_rows.size >= 1
            if not obs.vm_mask.any():
                break
            vm = rng.choice(np.flatnonzero(obs.vm_mask))
            pm = rng.choice(np.flatnonzero(env.pm_action_mask(vm)))
            obs, _, done, _ = env.step((vm, pm))
            if done:
                obs = env.reset()
                # Auto-reset copies the template: a fresh chain begins.
                assert obs.delta is None or obs.delta.step_index == 0
        assert deltas_seen > 0

    def test_structural_change_falls_back(self):
        """add_vm invalidates the SoA view; the next build starts a new chain."""
        from repro.cluster.machine import VirtualMachine
        from repro.cluster.vm_types import VMType

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

    def test_patch_feature_batch_matches_fresh(self):
        env = VMRescheduleEnv(_state(seed=5), ConstraintConfig(migration_limit=8))
        obs = env.reset()
        rng = np.random.default_rng(1)
        previous = None
        for _ in range(8):
            batch = patch_feature_batch(previous, obs)
            fresh = build_feature_batch(obs)
            assert np.array_equal(batch.hosts, fresh.hosts)
            for got, expected in zip(batch.tree_layout(), fresh.tree_layout()):
                np.testing.assert_array_equal(got, expected)
            previous = batch
            if not obs.vm_mask.any():
                break
            vm = rng.choice(np.flatnonzero(obs.vm_mask))
            pm = rng.choice(np.flatnonzero(env.pm_action_mask(vm)))
            obs, _, done, _ = env.step((vm, pm))
            if done:
                break


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
                    cached.vm_embeddings.data[0], fresh.vm_embeddings.data, rtol=0, atol=atol
                )
                np.testing.assert_allclose(
                    cached.pm_embeddings.data[0], fresh.pm_embeddings.data, rtol=0, atol=atol
                )
                np.testing.assert_allclose(
                    cached.vm_pm_scores[0], fresh.vm_pm_scores, rtol=0, atol=atol
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
                        fresh.vm_embeddings.data,
                        rtol=0, atol=1e-10,
                    )
                    np.testing.assert_allclose(
                        stacked.vm_pm_scores[row],
                        fresh.vm_pm_scores,
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
                        cached.vm_embeddings.data[row], fresh.vm_embeddings.data,
                        rtol=0, atol=1e-10,
                    )
                    np.testing.assert_allclose(
                        cached.pm_embeddings.data[row], fresh.pm_embeddings.data,
                        rtol=0, atol=1e-10,
                    )
                    np.testing.assert_allclose(
                        cached.vm_pm_scores[row], fresh.vm_pm_scores, rtol=0, atol=1e-10
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
