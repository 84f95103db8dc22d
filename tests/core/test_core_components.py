"""Tests for the VMR2L core: features, extractors, actors, policy and configs."""

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
from repro.core import (
    ModelConfig,
    PPOConfig,
    RiskSeekingConfig,
    SparseAttentionExtractor,
    TwoStagePolicy,
    VanillaAttentionExtractor,
    VMR2LConfig,
    build_extractor,
    build_feature_batch,
    stack_feature_batches,
)
from repro.core.actors import PMActor, ValueHead, VMActor
from repro.core.attention import MLPExtractor
from repro.core.policy import _apply_threshold
from repro.core.rollout import RolloutBuffer, Transition
from repro.env import ObservationBuilder, VMRescheduleEnv

from oracles import tree_mask

CATALOG = VMTypeCatalog.main()


def small_cluster():
    pms = [PhysicalMachine(pm_id=i, pm_type=PMType("pm64", cpu=64, memory=256)) for i in range(3)]
    state = ClusterState(pms=pms, vms=[])
    placements = [
        (0, "4xlarge", 0, 0),
        (1, "xlarge", 0, 0),
        (2, "2xlarge", 1, 0),
        (3, "xlarge", 1, 1),
        (4, "16xlarge", 2, -1),
    ]
    for vm_id, name, pm, numa in placements:
        state.add_vm(VirtualMachine(vm_id=vm_id, vm_type=CATALOG.get(name)), Placement(pm, numa))
    return state


def observation_of(state, mnl=10):
    return ObservationBuilder().build(state, migrations_left=mnl)


@pytest.fixture
def model_config():
    return ModelConfig(embed_dim=16, num_heads=2, num_blocks=1, feedforward_dim=32)


class TestConfigs:
    def test_invalid_model_config(self):
        with pytest.raises(ValueError):
            ModelConfig(embed_dim=10, num_heads=3)
        with pytest.raises(ValueError):
            ModelConfig(extractor="gnn")
        with pytest.raises(ValueError):
            ModelConfig(action_mode="three_stage")

    def test_invalid_ppo_config(self):
        with pytest.raises(ValueError):
            PPOConfig(gamma=0.0)
        with pytest.raises(ValueError):
            PPOConfig(rollout_steps=0)

    def test_invalid_risk_config(self):
        with pytest.raises(ValueError):
            RiskSeekingConfig(num_trajectories=0)
        with pytest.raises(ValueError):
            RiskSeekingConfig(vm_quantile=1.5)

    def test_vmr2l_config_roundtrip(self):
        config = VMR2LConfig(model=ModelConfig(embed_dim=16, num_heads=2), migration_limit=20)
        restored = VMR2LConfig.from_dict(config.to_dict())
        assert restored.model.embed_dim == 16
        assert restored.migration_limit == 20

    def test_from_dict_drops_retired_ppo_switches(self):
        # Checkpoints written before the two path-selecting PPO options were
        # deleted still carry them in their recorded config.
        payload = VMR2LConfig().to_dict()
        payload["ppo"].update(batched_updates=True, inference_rollouts=True)
        assert VMR2LConfig.from_dict(payload).ppo == PPOConfig()

    def test_from_dict_drops_retired_model_switches(self):
        # Checkpoints written while the attention implementation, its chunk
        # width and the float32 VM↔VM stage were options still carry them.
        payload = VMR2LConfig(model=ModelConfig(embed_dim=16, num_heads=2)).to_dict()
        payload["model"].update(
            attention_impl="chunked", attention_chunk_size=64, float32_vm_attention=True
        )
        restored = VMR2LConfig.from_dict(payload)
        assert restored.model == ModelConfig(embed_dim=16, num_heads=2)


class TestTreeMask:
    def test_tree_mask_structure(self):
        state = small_cluster()
        obs = observation_of(state)
        mask = tree_mask(build_feature_batch(obs))[0]
        num_pms, num_vms = obs.num_pms, obs.num_vms
        assert mask.shape == (num_pms + num_vms, num_pms + num_vms)
        # Diagonal always allowed.
        assert mask.diagonal().all()
        # VM0 and VM1 share PM0 -> they attend to each other.
        assert mask[num_pms + 0, num_pms + 1]
        # VM0 (PM0) and VM2 (PM1) are in different trees.
        assert not mask[num_pms + 0, num_pms + 2]
        # VM0 attends to its own PM (index 0) but not PM1.
        assert mask[num_pms + 0, 0]
        assert not mask[num_pms + 0, 1]
        # Symmetry.
        np.testing.assert_array_equal(mask, mask.T)

    def test_tree_mask_unplaced_vm_isolated(self):
        state = small_cluster()
        state.add_vm(VirtualMachine(vm_id=10, vm_type=CATALOG.get("large")))
        obs = observation_of(state)
        row = tree_mask(build_feature_batch(obs))[0, obs.num_pms + sorted(state.vms).index(10)]
        assert row.sum() == 1  # only itself

    def test_sparsity_summary(self):
        """The grouped trees attend over exactly the links the dense mask
        allows: every pair inside a tree is allowed, and the counts agree."""
        state = small_cluster()
        state.add_vm(VirtualMachine(vm_id=10, vm_type=CATALOG.get("large")))
        batch = build_feature_batch(observation_of(state))
        mask = tree_mask(batch)[0]
        links = 0
        for bucket in batch.tree_grouping().buckets:
            for members, valid in zip(bucket.members, bucket.valid):
                tree = members[valid]
                assert mask[np.ix_(tree, tree)].all()
                links += tree.size * tree.size
        assert links == mask.sum()
        sparsity = 1.0 - links / mask.size
        assert 0.0 < sparsity < 1.0


class TestExtractors:
    def test_sparse_extractor_shapes(self, model_config):
        state = small_cluster()
        batch = build_feature_batch(observation_of(state))
        extractor = SparseAttentionExtractor(model_config, rng=np.random.default_rng(0))
        output = extractor(batch)
        assert output.vm_embeddings.shape == (1, 5, 16)
        assert output.pm_embeddings.shape == (1, 3, 16)
        assert output.vm_pm_scores.shape == (1, 5, 3)
        np.testing.assert_allclose(output.vm_pm_scores.sum(axis=-1), np.ones((1, 5)), atol=1e-6)

    def test_vanilla_extractor_ignores_tree_mask(self, model_config):
        state = small_cluster()
        batch = build_feature_batch(observation_of(state))
        extractor = VanillaAttentionExtractor(model_config, rng=np.random.default_rng(0))
        output_a = extractor(batch)
        batch.hosts = np.full((1, batch.num_vms), -1)  # every token a tree of its own
        output_b = extractor(batch)
        np.testing.assert_allclose(output_a.vm_embeddings.numpy(), output_b.vm_embeddings.numpy())

    def test_sparse_extractor_uses_tree_structure(self, model_config):
        """Changing which PM hosts a VM changes the sparse extractor's output."""
        import dataclasses

        state = small_cluster()
        obs = observation_of(state)
        batch_a = build_feature_batch(obs)
        extractor = SparseAttentionExtractor(model_config, rng=np.random.default_rng(0))
        out_a = extractor(batch_a).vm_embeddings.numpy()
        # Re-host the first placed VM on a different PM: identical features,
        # different tree structure — the tree-local stage must notice.
        moved = obs.vm_source_pm.copy()
        placed = int(np.flatnonzero(moved >= 0)[0])
        moved[placed] = (moved[placed] + 1) % obs.num_pms
        batch_b = build_feature_batch(dataclasses.replace(obs, vm_source_pm=moved))
        out_b = extractor(batch_b).vm_embeddings.numpy()
        assert not np.allclose(out_a, out_b)

    def test_mlp_extractor_capacity_checks(self, model_config):
        state = small_cluster()
        batch = build_feature_batch(observation_of(state))
        extractor = MLPExtractor(model_config, max_pms=3, max_vms=5, rng=np.random.default_rng(0))
        output = extractor(batch)
        assert output.vm_embeddings.shape == (1, 5, 16)
        small = MLPExtractor(model_config, max_pms=2, max_vms=2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            small(batch)

    def test_parameter_count_independent_of_cluster_size(self, model_config):
        """The paper's key scaling property (§3.3 / §4)."""
        extractor = SparseAttentionExtractor(model_config, rng=np.random.default_rng(0))
        params_before = sum(param.size for param in extractor.parameters())
        # Feeding a bigger cluster must not change the parameter count.
        big = ClusterState(
            pms=[PhysicalMachine(pm_id=i, pm_type=PMType("pm64", cpu=64, memory=256)) for i in range(6)],
            vms=[],
        )
        for vm_id in range(12):
            big.add_vm(
                VirtualMachine(vm_id=vm_id, vm_type=CATALOG.get("xlarge")),
                Placement(vm_id % 6, vm_id % 2),
            )
        extractor(build_feature_batch(observation_of(big)))
        assert sum(param.size for param in extractor.parameters()) == params_before

    def test_build_extractor_factory(self, model_config):
        assert isinstance(build_extractor(model_config), SparseAttentionExtractor)
        vanilla_config = ModelConfig(embed_dim=16, num_heads=2, extractor="vanilla")
        assert isinstance(build_extractor(vanilla_config), VanillaAttentionExtractor)
        mlp_config = ModelConfig(embed_dim=16, num_heads=2, extractor="mlp")
        with pytest.raises(ValueError):
            build_extractor(mlp_config)
        assert isinstance(build_extractor(mlp_config, max_pms=3, max_vms=5), MLPExtractor)


class TestActors:
    """The heads consume stacked ``(batch, machines, dim)`` extractor output."""

    def _stacked_output(self, model_config):
        batch = stack_feature_batches([build_feature_batch(observation_of(small_cluster()))])
        return SparseAttentionExtractor(model_config, rng=np.random.default_rng(0))(batch)

    def test_vm_actor_logits_shape(self, model_config):
        logits = VMActor(model_config, rng=np.random.default_rng(0))(self._stacked_output(model_config))
        assert logits.shape == (1, 5)

    def test_pm_actor_logits_shape_and_bounds(self, model_config):
        output = self._stacked_output(model_config)
        actor = PMActor(model_config, rng=np.random.default_rng(0))
        logits = actor(output, [2])
        assert logits.shape == (1, 3)
        with pytest.raises(IndexError):
            actor(output, [99])

    def test_value_head_one_value_per_row(self, model_config):
        value = ValueHead(model_config, rng=np.random.default_rng(0))(self._stacked_output(model_config))
        assert value.shape == (1,)
        assert np.isfinite(value.item())


class TestPolicy:
    def _env(self, action_mode="two_stage"):
        state = small_cluster()
        return VMRescheduleEnv(state, ConstraintConfig(migration_limit=5))

    def test_two_stage_act_never_illegal(self, model_config):
        env = self._env()
        observation = env.reset()
        policy = TwoStagePolicy(model_config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _ in range(10):
            output = policy.act(observation, pm_mask_fn=env.pm_action_mask, rng=rng)
            assert observation.vm_mask[output.vm_index]
            assert env.pm_action_mask(output.vm_index)[output.pm_index]

    def test_act_greedy_is_deterministic(self, model_config):
        env = self._env()
        observation = env.reset()
        policy = TwoStagePolicy(model_config, rng=np.random.default_rng(0))
        a = policy.act(observation, env.pm_action_mask, np.random.default_rng(0), greedy=True)
        b = policy.act(observation, env.pm_action_mask, np.random.default_rng(99), greedy=True)
        assert a.action == b.action

    def test_evaluate_actions_matches_act_log_prob(self, model_config):
        env = self._env()
        observation = env.reset()
        policy = TwoStagePolicy(model_config, rng=np.random.default_rng(0))
        output = policy.act(observation, env.pm_action_mask, np.random.default_rng(0))
        pm_mask = env.pm_action_mask(output.vm_index)
        log_prob, entropy, value = policy.evaluate_actions(
            observation, output.vm_index, output.pm_index, observation.vm_mask, pm_mask
        )
        assert log_prob.numpy()[0] == pytest.approx(output.log_prob, abs=1e-5)
        assert entropy.numpy()[0] == pytest.approx(output.entropy, abs=1e-5)
        assert value.numpy()[0] == pytest.approx(output.value, abs=1e-5)

    def test_full_joint_mode_requires_mask_and_respects_it(self, model_config):
        config = ModelConfig(embed_dim=16, num_heads=2, num_blocks=1, action_mode="full_joint")
        env = self._env()
        observation = env.reset()
        policy = TwoStagePolicy(config, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            policy.act(observation, env.pm_action_mask, np.random.default_rng(0))
        joint = env.joint_action_mask()
        output = policy.act(observation, env.pm_action_mask, np.random.default_rng(0), joint_mask=joint)
        assert joint[output.vm_index, output.pm_index]

    def test_penalty_mode_skips_masks(self, model_config):
        config = ModelConfig(embed_dim=16, num_heads=2, num_blocks=1, action_mode="penalty")
        env = self._env()
        observation = env.reset()
        policy = TwoStagePolicy(config, rng=np.random.default_rng(0))
        output = policy.act(observation, env.pm_action_mask, np.random.default_rng(0))
        assert 0 <= output.vm_index < observation.num_vms
        assert 0 <= output.pm_index < observation.num_pms

    def test_value_of_matches_act_value(self, model_config):
        env = self._env()
        observation = env.reset()
        policy = TwoStagePolicy(model_config, rng=np.random.default_rng(0))
        output = policy.act(observation, env.pm_action_mask, np.random.default_rng(0))
        assert policy.value_of(observation) == pytest.approx(output.value, abs=1e-6)

    def test_apply_threshold(self):
        probs = np.array([0.001, 0.01, 0.39, 0.599])
        thresholded = _apply_threshold(probs.copy(), 0.5)
        assert thresholded[0] == 0.0
        assert thresholded.sum() == pytest.approx(1.0)
        untouched = _apply_threshold(probs.copy(), None)
        np.testing.assert_allclose(untouched, probs)

    def test_gradients_flow_through_policy_loss(self, model_config):
        env = self._env()
        observation = env.reset()
        policy = TwoStagePolicy(model_config, rng=np.random.default_rng(0))
        output = policy.act(observation, env.pm_action_mask, np.random.default_rng(0))
        pm_mask = env.pm_action_mask(output.vm_index)
        log_prob, entropy, value = policy.evaluate_actions(
            observation, output.vm_index, output.pm_index, observation.vm_mask, pm_mask
        )
        loss = -log_prob.sum() + (value * value).sum() - 0.01 * entropy.sum()
        loss.backward()
        grads = [p.grad for p in policy.parameters() if p.grad is not None]
        assert grads, "expected at least some parameters to receive gradients"
        assert any(np.abs(g).sum() > 0 for g in grads)


class TestRolloutBuffer:
    def _transition(self, reward, done, value=0.0):
        state = small_cluster()
        obs = observation_of(state)
        return Transition(
            observation=obs,
            vm_index=0,
            pm_index=1,
            log_prob=-1.0,
            value=value,
            reward=reward,
            done=done,
            vm_mask=obs.vm_mask,
            pm_mask=np.ones(obs.num_pms, dtype=bool),
        )

    def test_capacity_enforced(self):
        buffer = RolloutBuffer(capacity=1)
        buffer.add(self._transition(1.0, False))
        assert buffer.full
        with pytest.raises(RuntimeError):
            buffer.add(self._transition(1.0, False))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RolloutBuffer(capacity=0)

    def test_gae_matches_manual_computation(self):
        buffer = RolloutBuffer(capacity=3)
        rewards = [1.0, 0.0, 2.0]
        values = [0.5, 0.4, 0.3]
        for r, v in zip(rewards, values):
            buffer.add(self._transition(r, False, value=v))
        gamma, lam = 0.9, 0.8
        buffer.compute_advantages(last_value=0.2, gamma=gamma, gae_lambda=lam, normalize=False)
        # Manual GAE.
        deltas = [
            rewards[0] + gamma * values[1] - values[0],
            rewards[1] + gamma * values[2] - values[1],
            rewards[2] + gamma * 0.2 - values[2],
        ]
        adv2 = deltas[2]
        adv1 = deltas[1] + gamma * lam * adv2
        adv0 = deltas[0] + gamma * lam * adv1
        stored = [t.advantage for t in buffer.transitions]
        np.testing.assert_allclose(stored, [adv0, adv1, adv2], atol=1e-10)
        np.testing.assert_allclose(
            [t.return_ for t in buffer.transitions],
            [adv0 + values[0], adv1 + values[1], adv2 + values[2]],
            atol=1e-10,
        )

    def test_gae_resets_at_episode_boundary(self):
        buffer = RolloutBuffer(capacity=2)
        buffer.add(self._transition(1.0, True, value=0.5))
        buffer.add(self._transition(1.0, False, value=0.5))
        buffer.compute_advantages(last_value=10.0, gamma=0.99, gae_lambda=0.95, normalize=False)
        # The terminal transition must not bootstrap from the next value.
        assert buffer.transitions[0].advantage == pytest.approx(1.0 - 0.5)

    def test_normalized_advantages_have_zero_mean(self):
        buffer = RolloutBuffer(capacity=4)
        for r in (1.0, -1.0, 2.0, 0.5):
            buffer.add(self._transition(r, False, value=0.0))
        buffer.compute_advantages(last_value=0.0, gamma=0.99, gae_lambda=0.95, normalize=True)
        advantages = np.array([t.advantage for t in buffer.transitions])
        assert abs(advantages.mean()) < 1e-8

    def test_minibatch_indices_cover_buffer(self):
        buffer = RolloutBuffer(capacity=5)
        for _ in range(5):
            buffer.add(self._transition(0.0, False))
        seen = []
        for batch in buffer.minibatch_indices(2, np.random.default_rng(0)):
            seen.extend(batch.tolist())
        assert sorted(seen) == [0, 1, 2, 3, 4]
