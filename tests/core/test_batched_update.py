"""Parity tests for the batched PPO update path.

``TwoStagePolicy.evaluate_actions_batch`` is the only evaluate
implementation; one call at B=N must reproduce N one-element calls (within
float tolerance) for every action mode, extractor and a mixed-size minibatch:
log-probs, entropies, values, gradients after one backward, and — through
``PPOTrainer.update`` — parameters after a full optimizer step.
"""

import numpy as np
import pytest

from repro.cluster import ConstraintConfig
from repro.core import ModelConfig, PPOConfig
from repro.core.features import build_feature_batch, stack_feature_batches
from repro.core.policy import TwoStagePolicy, _apply_threshold
from repro.core.ppo import PPOTrainer
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env import VMRescheduleEnv

from oracles import oracle_ops, tree_mask


@pytest.fixture(scope="module")
def snapshot():
    spec = ClusterSpec(name="batched-update", num_pms=6, target_utilization=0.7,
                       best_fit_fraction=0.3)
    return SnapshotGenerator(spec, seed=7).generate()


def make_env(snapshot, migration_limit=5, penalty=None):
    return VMRescheduleEnv(
        snapshot.copy(),
        constraint_config=ConstraintConfig(migration_limit=migration_limit),
        seed=0,
        illegal_action_penalty=penalty,
    )


def collect_steps(env, policy, steps, rng):
    """Roll a few steps and return the stored-transition ingredients."""
    observation = env.reset()
    two_stage = policy.config.action_mode == "two_stage"
    full_joint = policy.config.action_mode == "full_joint"
    records = []
    for _ in range(steps):
        joint_mask = env.joint_action_mask().copy() if full_joint else None
        output = policy.act(
            observation, pm_mask_fn=env.pm_action_mask, rng=rng, joint_mask=joint_mask
        )
        vm_mask = observation.vm_mask.copy() if two_stage else None
        pm_mask = env.pm_action_mask(output.vm_index).copy() if two_stage else None
        records.append(
            (observation, output.vm_index, output.pm_index, vm_mask, pm_mask, joint_mask)
        )
        observation, _, done, _ = env.step(output.action)
        if done:
            observation = env.reset()
    return records


def batch_args(records):
    observations = [r[0] for r in records]
    return dict(
        observations=observations,
        vm_indices=[r[1] for r in records],
        pm_indices=[r[2] for r in records],
        vm_masks=[r[3] for r in records],
        pm_masks=[r[4] for r in records],
        joint_masks=[r[5] for r in records],
    )


#: Every action mode, the fixed-size MLP extractor and a mixed-size minibatch.
CASES = ["two_stage", "penalty", "full_joint", "mlp", "mixed_size"]


def case_records(case, snapshot, seed):
    """(policy, records) for one of CASES; ``mixed_size`` interleaves two
    cluster sizes in one minibatch."""
    other_spec = ClusterSpec(name="batched-update-small", num_pms=4,
                             target_utilization=0.6, best_fit_fraction=0.3)
    other = SnapshotGenerator(other_spec, seed=11).generate()
    mode = case if case in ("penalty", "full_joint") else "two_stage"
    config = ModelConfig(embed_dim=16, num_heads=2, num_blocks=1, action_mode=mode,
                         extractor="mlp" if case == "mlp" else "sparse")
    policy = TwoStagePolicy(config, rng=np.random.default_rng(0),
                            max_pms=snapshot.num_pms, max_vms=snapshot.num_vms)
    penalty = -1.0 if case == "penalty" else None
    records = collect_steps(make_env(snapshot, penalty=penalty), policy, 4,
                            np.random.default_rng(seed))
    if case == "mixed_size":
        extra = collect_steps(make_env(other), policy, 2, np.random.default_rng(seed + 1))
        records = [records[0], extra[0], records[1], records[2], extra[1], records[3]]
        assert len({(r[0].num_pms, r[0].num_vms) for r in records}) > 1
    return policy, records


class TestEvaluateActionsBatchParity:
    @pytest.mark.parametrize("case", CASES)
    def test_outputs_match_one_element_calls(self, snapshot, case):
        policy, records = case_records(case, snapshot, seed=1)
        count = len(records)
        log_probs, entropies, values = policy.evaluate_actions_batch(**batch_args(records))
        assert log_probs.shape == (count,) and entropies.shape == (count,)
        assert values.shape == (count,)
        for index, record in enumerate(records):
            log_prob, entropy, value = policy.evaluate_actions(*record)
            assert log_probs.numpy()[index] == pytest.approx(log_prob.numpy()[0], abs=1e-8)
            assert entropies.numpy()[index] == pytest.approx(entropy.numpy()[0], abs=1e-8)
            assert values.numpy()[index] == pytest.approx(value.numpy()[0], abs=1e-8)

    @pytest.mark.parametrize("case", CASES)
    def test_gradients_match_one_element_calls(self, snapshot, case):
        policy, records = case_records(case, snapshot, seed=2)

        # Reference: one-element forwards, mean loss over the minibatch.
        for parameter in policy.parameters():
            parameter.zero_grad()
        losses = []
        for record in records:
            log_prob, entropy, value = policy.evaluate_actions(*record)
            losses.append(-log_prob.sum() + (value * value).sum() - 0.01 * entropy.sum())
        total = losses[0]
        for extra in losses[1:]:
            total = total + extra
        (total / float(len(losses))).backward()
        reference = {
            name: parameter.grad.copy()
            for name, parameter in policy.named_parameters()
            if parameter.grad is not None
        }

        for parameter in policy.parameters():
            parameter.zero_grad()
        log_probs, entropies, values = policy.evaluate_actions_batch(**batch_args(records))
        (-log_probs + values * values - entropies * 0.01).mean().backward()
        batched = {
            name: parameter.grad
            for name, parameter in policy.named_parameters()
            if parameter.grad is not None
        }

        assert set(batched) == set(reference)
        for name, grad in reference.items():
            np.testing.assert_allclose(batched[name], grad, atol=1e-8, err_msg=name)

    def test_cached_feature_batches_match_fresh(self, snapshot):
        config = ModelConfig(embed_dim=16, num_heads=2, num_blocks=1)
        policy = TwoStagePolicy(config, rng=np.random.default_rng(0))
        env = make_env(snapshot)
        records = collect_steps(env, policy, 3, np.random.default_rng(3))
        args = batch_args(records)
        fresh = policy.evaluate_actions_batch(**args)
        cached = policy.evaluate_actions_batch(
            **args, feature_batches=[build_feature_batch(obs) for obs in args["observations"]]
        )
        for fresh_tensor, cached_tensor in zip(fresh, cached):
            np.testing.assert_allclose(cached_tensor.numpy(), fresh_tensor.numpy(), atol=1e-12)

    def test_mixed_mask_presence_rejected(self, snapshot):
        policy, records = case_records("two_stage", snapshot, seed=4)
        args = batch_args(records)
        args["pm_masks"][1] = None
        with pytest.raises(ValueError, match="pm_masks"):
            policy.evaluate_actions_batch(**args)


class TestTreeGroupingParity:
    def test_grouped_stage_matches_dense_masked_layer(self, snapshot):
        """Padded per-tree attention must equal the dense masked tree stage."""
        from repro.nn import AttentionMask, Tensor, TransformerEncoderLayer

        envs = [make_env(snapshot) for _ in range(3)]
        observations = [env.reset() for env in envs]
        batch = stack_feature_batches([build_feature_batch(obs) for obs in observations])
        grouping = batch.tree_grouping()
        assert grouping is not None
        rng = np.random.default_rng(0)
        layer = TransformerEncoderLayer(16, 2, 32, rng=rng)
        combined = Tensor(
            rng.normal(size=(len(observations), batch.sequence_length, 16)),
            requires_grad=True,
        )
        grouped_out = grouping.apply(layer, combined)
        dense_out = layer(combined, mask=AttentionMask(tree_mask(batch)))
        np.testing.assert_allclose(grouped_out.numpy(), dense_out.numpy(), atol=1e-10)

        grouped_out.sum().backward()
        grouped_grad = combined.grad.copy()
        combined.zero_grad()
        for parameter in layer.parameters():
            parameter.zero_grad()
        dense_out = layer(combined, mask=AttentionMask(tree_mask(batch)))
        dense_out.sum().backward()
        np.testing.assert_allclose(grouped_grad, combined.grad, atol=1e-10)

    def test_grouping_covers_each_position_once(self, snapshot):
        observations = [make_env(snapshot).reset() for _ in range(2)]
        batch = stack_feature_batches([build_feature_batch(obs) for obs in observations])
        grouping = batch.tree_grouping()
        positions = np.concatenate(
            [bucket.members[bucket.valid] for bucket in grouping.buckets]
        )
        assert positions.size == 2 * batch.sequence_length
        assert np.array_equal(np.sort(positions), np.arange(2 * batch.sequence_length))


class TestReferenceOpsParity:
    def test_reference_substrate_matches_fast_path(self, snapshot):
        """The oracle (chained ops, dense tree stage) must compute the same
        quantities and gradients as the fused/sparse fast path."""
        config = ModelConfig(embed_dim=16, num_heads=2, num_blocks=1)
        policy = TwoStagePolicy(config, rng=np.random.default_rng(0))
        env = make_env(snapshot)
        records = collect_steps(env, policy, 3, np.random.default_rng(6))
        args = batch_args(records)

        def run():
            for parameter in policy.parameters():
                parameter.zero_grad()
            log_probs, entropies, values = policy.evaluate_actions_batch(**args)
            (-log_probs + values * values - entropies * 0.01).mean().backward()
            return (
                log_probs.numpy().copy(),
                {n: p.grad.copy() for n, p in policy.named_parameters() if p.grad is not None},
            )

        fast_out, fast_grads = run()
        with oracle_ops():
            ref_out, ref_grads = run()
        np.testing.assert_allclose(ref_out, fast_out, atol=1e-8)
        assert set(ref_grads) == set(fast_grads)
        for name, grad in ref_grads.items():
            np.testing.assert_allclose(fast_grads[name], grad, atol=1e-8, err_msg=name)


class TestBatchedActorForwards:
    def test_actor_rows_match_batches_of_one(self, snapshot):
        config = ModelConfig(embed_dim=16, num_heads=2, num_blocks=1)
        policy = TwoStagePolicy(config, rng=np.random.default_rng(0))
        envs = [make_env(snapshot) for _ in range(3)]
        observations = [env.reset() for env in envs]
        batches = [build_feature_batch(obs) for obs in observations]
        stacked_output = policy.extractor(stack_feature_batches(batches))
        vm_logits = policy.vm_actor(stacked_output)
        assert vm_logits.shape == (3, observations[0].num_vms)
        vm_indices = [1, 4, 2]
        pm_logits = policy.pm_actor(stacked_output, vm_indices)
        assert pm_logits.shape == (3, observations[0].num_pms)
        for index, batch in enumerate(batches):
            single_output = policy.extractor(stack_feature_batches([batch]))
            np.testing.assert_allclose(
                vm_logits.numpy()[index], policy.vm_actor(single_output).numpy()[0], atol=1e-8
            )
            np.testing.assert_allclose(
                pm_logits.numpy()[index],
                policy.pm_actor(single_output, [vm_indices[index]]).numpy()[0],
                atol=1e-8,
            )
            # Every batch is stacked: a batch of one stacks to itself.
            assert stack_feature_batches([batch]) is batch
            assert single_output.vm_pm_scores.shape == (
                1, observations[0].num_vms, observations[0].num_pms
            )

    def test_pm_actor_rejects_bad_indices(self, snapshot):
        config = ModelConfig(embed_dim=16, num_heads=2, num_blocks=1)
        policy = TwoStagePolicy(config, rng=np.random.default_rng(0))
        observations = [make_env(snapshot).reset() for _ in range(2)]
        stacked = stack_feature_batches([build_feature_batch(obs) for obs in observations])
        stacked_output = policy.extractor(stacked)
        with pytest.raises(ValueError):
            policy.pm_actor(stacked_output, [0])  # wrong length
        with pytest.raises(IndexError):
            policy.pm_actor(stacked_output, [0, observations[0].num_vms])


class TestTrainerUpdateParity:
    @pytest.mark.parametrize("action_mode", ["two_stage", "penalty", "full_joint"])
    def test_update_matches_one_element_reference(self, snapshot, action_mode):
        """``PPOTrainer.update`` equals the textbook clipped-PPO step computed
        transition by transition through one-element ``evaluate_actions``."""
        model_config = ModelConfig(embed_dim=16, num_heads=2, num_blocks=1,
                                   action_mode=action_mode)
        ppo = PPOConfig(rollout_steps=8, minibatch_size=4, update_epochs=2, seed=0)

        def make_trainer():
            policy = TwoStagePolicy(model_config, rng=np.random.default_rng(0))
            env = make_env(snapshot, penalty=-1.0 if action_mode == "penalty" else None)
            return PPOTrainer(policy, env, ppo)

        trainer = make_trainer()
        stats = trainer.update(trainer.collect_rollout())

        reference = make_trainer()
        buffer = reference.collect_rollout()
        policy_losses, kls = [], []
        for _ in range(ppo.update_epochs):
            for indices in buffer.minibatch_indices(ppo.minibatch_size, reference.rng):
                reference.optimizer.zero_grad()
                total = None
                for t in (buffer.transitions[index] for index in indices):
                    log_prob, entropy, value = reference.policy.evaluate_actions(
                        t.observation, t.vm_index, t.pm_index, t.vm_mask, t.pm_mask, t.joint_mask
                    )
                    ratio = (log_prob - t.log_prob).exp()
                    clipped = ratio.clip(1.0 - ppo.clip_coef, 1.0 + ppo.clip_coef)
                    surrogate = ratio if ratio.item() * t.advantage <= clipped.item() * t.advantage else clipped
                    policy_loss = -(surrogate * t.advantage).sum()
                    loss = (
                        policy_loss
                        + ppo.value_coef * ((value - t.return_) ** 2).sum()
                        - ppo.entropy_coef * entropy.sum()
                    )
                    total = loss if total is None else total + loss
                    policy_losses.append(policy_loss.item())
                    kls.append(t.log_prob - log_prob.item())
                (total / float(len(indices))).backward()
                reference.optimizer.clip_gradients(ppo.max_grad_norm)
                reference.optimizer.step()

        assert stats["policy_loss"] == pytest.approx(np.mean(policy_losses), abs=1e-8)
        assert stats["approx_kl"] == pytest.approx(np.mean(np.abs(kls)), abs=1e-8)
        for (name, got), (_, expected) in zip(
            trainer.policy.named_parameters(), reference.policy.named_parameters()
        ):
            np.testing.assert_allclose(got.data, expected.data, atol=1e-8, err_msg=name)


class TestThresholdRegression:
    def test_cutoff_ignores_masked_zero_probabilities(self):
        # Five masked actions carry zero probability; the §3.4 quantile must
        # be taken over the feasible (positive) entries, so the weakest
        # feasible action is dropped even though most entries are zero.
        probs = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.3, 0.2])
        thresholded = _apply_threshold(probs.copy(), 0.5)
        assert thresholded[7] == 0.0
        np.testing.assert_allclose(thresholded[5:7], [0.625, 0.375])
        assert thresholded.sum() == pytest.approx(1.0)

    def test_no_positive_entries_left_untouched(self):
        probs = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(_apply_threshold(probs.copy(), 0.9), probs)
