"""The single-observation sparse tree path, float32 inference and no-grad mode.

PR 2 grouped the tree-local attention stage for stacked batches only; this
suite pins the retirement of the dense single-observation path:

* batch=1 grouped tree attention is numerically identical (≤1e-8, in practice
  machine precision) to the dense masked tree stage (``oracles``) for ``act``
  and ``evaluate_actions`` — outputs AND gradients;
* float32 inference (``inference_dtype``) stays within documented tolerance
  of the float64 path, keeps every attention layer's output float32 (no
  silent upcast) and leaves gradient-tracking forwards float64;
* ``repro.nn.no_grad`` inference produces bitwise-identical numbers.
"""

import numpy as np
import pytest

import oracles
from repro.cluster import ConstraintConfig
from repro.core import ModelConfig, VMR2LConfig
from repro.core.features import FeatureBatch, build_feature_batch
from repro.core.policy import TwoStagePolicy
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env import VMRescheduleEnv
from repro.nn import (
    CrossAttentionLayer,
    MultiHeadAttention,
    TransformerEncoderLayer,
    no_grad,
)


@pytest.fixture(scope="module")
def env():
    spec = ClusterSpec(name="sparse1", num_pms=7, target_utilization=0.75, best_fit_fraction=0.3)
    snapshot = SnapshotGenerator(spec, seed=2).generate()
    env = VMRescheduleEnv(snapshot, constraint_config=ConstraintConfig(migration_limit=5), seed=0)
    env.reset()
    return env


@pytest.fixture()
def observation(env):
    return env._observation()


@pytest.fixture(scope="module")
def policy():
    return TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))


def grads_of(policy):
    return [None if p.grad is None else p.grad.copy() for p in policy.parameters()]


def clear_grads(policy):
    for p in policy.parameters():
        p.grad = None


class TestSingleObservationGroupedParity:
    def test_act_matches_dense_path(self, env, observation, policy):
        grouped = policy.act(observation, pm_mask_fn=env.pm_action_mask, rng=np.random.default_rng(5))
        with oracles.dense_tree_stage():
            dense = policy.act(observation, pm_mask_fn=env.pm_action_mask, rng=np.random.default_rng(5))
        assert grouped.vm_index == dense.vm_index
        assert grouped.pm_index == dense.pm_index
        assert grouped.log_prob == pytest.approx(dense.log_prob, abs=1e-8)
        assert grouped.value == pytest.approx(dense.value, abs=1e-8)
        assert grouped.entropy == pytest.approx(dense.entropy, abs=1e-8)
        np.testing.assert_allclose(grouped.vm_probs, dense.vm_probs, atol=1e-8)
        np.testing.assert_allclose(grouped.pm_probs, dense.pm_probs, atol=1e-8)

    def test_evaluate_actions_outputs_and_gradients_match_dense(self, env, observation, policy):
        action = policy.act(observation, pm_mask_fn=env.pm_action_mask, rng=np.random.default_rng(5))
        pm_mask = env.pm_action_mask(action.vm_index)

        def run():
            log_prob, entropy, value = policy.evaluate_actions(
                observation, action.vm_index, action.pm_index, observation.vm_mask, pm_mask
            )
            clear_grads(policy)
            (log_prob.sum() + entropy.sum() + value.sum()).backward()
            return (
                float(log_prob.item()),
                float(entropy.item()),
                float(value.item()),
                grads_of(policy),
            )

        lp_g, ent_g, val_g, grads_g = run()
        with oracles.dense_tree_stage():
            lp_d, ent_d, val_d, grads_d = run()
        assert lp_g == pytest.approx(lp_d, abs=1e-8)
        assert ent_g == pytest.approx(ent_d, abs=1e-8)
        assert val_g == pytest.approx(val_d, abs=1e-8)
        for grad_g, grad_d in zip(grads_g, grads_d):
            if grad_g is None:
                assert grad_d is None
            else:
                np.testing.assert_allclose(grad_g, grad_d, atol=1e-8)

    def test_dense_tree_mask_never_materialized(self, env, observation, policy, monkeypatch):
        """The acceptance assertion: no attention layer sees an ``S×S`` tree
        mask on the library path; the dense oracle stage is the only one.

        Masks are recorded both where a layer is called (``forward``) and
        where the score core runs (``attend``), which the grouped tree stage
        reaches directly with per-bucket padding masks."""
        seq = observation.num_pms + observation.num_vms
        shapes, core_shapes = [], []
        forward, attend = MultiHeadAttention.forward, MultiHeadAttention.attend

        def recording(self, query, key, value, mask=None, return_weights=False):
            if mask is not None:
                shapes.append(np.shape(getattr(mask, "mask", mask))[-2:])
            return forward(self, query, key, value, mask, return_weights)

        def recording_core(self, q, k, v, mask=None, return_weights=False):
            if mask is not None:
                shapes.append(np.shape(getattr(mask, "mask", mask))[-2:])
                core_shapes.append(shapes[-1])
            return attend(self, q, k, v, mask, return_weights)

        monkeypatch.setattr(MultiHeadAttention, "forward", recording)
        monkeypatch.setattr(MultiHeadAttention, "attend", recording_core)
        output = policy.act(observation, pm_mask_fn=env.pm_action_mask, rng=np.random.default_rng(5))
        policy.evaluate_actions(
            observation,
            output.vm_index,
            output.pm_index,
            observation.vm_mask,
            env.pm_action_mask(output.vm_index),
        )
        assert shapes and (seq, seq) not in shapes
        assert core_shapes  # the grouped tree stage's per-bucket masks
        # The probe does see the dense stage when the oracle is patched in.
        with oracles.dense_tree_stage():
            policy.extractor(build_feature_batch(observation))
        assert (seq, seq) in shapes and (seq, seq) in core_shapes

    def test_oracle_ops_patches_are_scoped(self, observation, policy):
        """The oracle is a scoped patch, not a process-global mode: leaving
        the context — normally or by an exception — restores every op."""
        from repro.core.attention import SparseAttentionExtractor
        from repro.core.step_cache import StepCache
        from repro.nn import functional as F

        targets = [
            (F, "softmax"), (F, "log_softmax"), (F, "layer_norm"), (F, "masked_fill"),
            (F, "linear"), (MultiHeadAttention, "forward"),
            (SparseAttentionExtractor, "forward"), (StepCache, "usable"),
        ]
        originals = [getattr(owner, name) for owner, name in targets]
        with oracles.oracle_ops():
            assert all(
                getattr(owner, name) is not original
                for (owner, name), original in zip(targets, originals)
            )
        with pytest.raises(RuntimeError):
            with oracles.oracle_ops():
                raise RuntimeError("leave the context early")
        assert [getattr(owner, name) for owner, name in targets] == originals
        assert policy.extractor(build_feature_batch(observation)).vm_pm_scores is not None

    def test_oracle_runs_dense_tree_stage(self, observation, policy, monkeypatch):
        """The oracle side of the parity tests really takes the dense stage:
        one ``S×S`` mask per forward, and no grouping."""
        masks = []
        dense_tree_mask = oracles.dense_tree_mask

        def recording(*args):
            masks.append(dense_tree_mask(*args))
            return masks[-1]

        monkeypatch.setattr(oracles, "dense_tree_mask", recording)

        def boom(self):
            raise AssertionError("the oracle extractor grouped its trees")

        monkeypatch.setattr(FeatureBatch, "tree_grouping", boom)
        with oracles.oracle_ops():
            policy.extractor(build_feature_batch(observation))
        seq = observation.num_pms + observation.num_vms
        # The batch of one's mask, built once from its one row's.
        assert [mask.shape for mask in masks] == [(seq, seq), (1, seq, seq)]

    def test_grouping_built_once_per_batch(self, observation):
        batch = build_feature_batch(observation)
        first = batch.tree_grouping()
        assert first is not None
        assert batch.tree_grouping() is first


class TestFloat32Inference:
    """``inference_dtype="float32"`` — the one reduced-precision knob."""

    def test_parity_within_tolerance(self, env, observation):
        base = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
        f32 = TwoStagePolicy(ModelConfig(inference_dtype="float32"), rng=np.random.default_rng(0))
        with no_grad():
            out64 = base.act(observation, pm_mask_fn=env.pm_action_mask, rng=np.random.default_rng(5))
            out32 = f32.act(observation, pm_mask_fn=env.pm_action_mask, rng=np.random.default_rng(5))
        # Documented tolerance: the whole no-grad stack runs in single
        # precision; downstream error stays ~1e-6.
        assert out32.value == pytest.approx(out64.value, abs=1e-5)
        assert out32.log_prob == pytest.approx(out64.log_prob, abs=1e-5)
        np.testing.assert_allclose(out32.vm_probs, out64.vm_probs, atol=1e-5)

    def test_attention_layers_and_embeddings_stay_float32(self, env, observation, monkeypatch):
        """Every attention layer's output and the extractor's embeddings are
        float32 — a float64 scalar or parameter anywhere would promote the
        stream without breaking the tolerance above."""
        dtypes = []
        for layer_class in (MultiHeadAttention, TransformerEncoderLayer, CrossAttentionLayer):

            def recording(self, *args, _forward=layer_class.forward, **kwargs):
                result = _forward(self, *args, **kwargs)
                output = result[0] if isinstance(result, tuple) else result
                dtypes.append((type(self).__name__, output.dtype))
                return result

            monkeypatch.setattr(layer_class, "forward", recording)
        policy = TwoStagePolicy(ModelConfig(inference_dtype="float32"), rng=np.random.default_rng(0))
        with no_grad():
            output = policy.extractor(build_feature_batch(observation))
            policy.act(observation, pm_mask_fn=env.pm_action_mask, rng=np.random.default_rng(5))
        assert output.vm_embeddings.dtype == np.float32
        assert output.pm_embeddings.dtype == np.float32
        assert {name for name, _ in dtypes} == {
            "MultiHeadAttention", "TransformerEncoderLayer", "CrossAttentionLayer"
        }
        assert all(dtype == np.float32 for _, dtype in dtypes), dtypes

    def test_gradient_tracking_forward_stays_float64(self, env, observation):
        """Training never sees the knob: outputs and parameter gradients are
        the float64 config's, bit for bit."""
        results = []
        for dtype in ("float64", "float32"):
            policy = TwoStagePolicy(ModelConfig(inference_dtype=dtype), rng=np.random.default_rng(0))
            output = policy.act(observation, pm_mask_fn=env.pm_action_mask, rng=np.random.default_rng(5))
            log_prob, entropy, value = policy.evaluate_actions(
                observation,
                output.vm_index,
                output.pm_index,
                observation.vm_mask,
                env.pm_action_mask(output.vm_index),
            )
            (log_prob.sum() + value.sum()).backward()
            results.append((float(log_prob.item()), grads_of(policy)))
        assert results[1][0] == results[0][0]
        for grad32, grad64 in zip(results[1][1], results[0][1]):
            assert (grad32 is None) == (grad64 is None)
            if grad64 is not None:
                assert grad32.dtype == np.float64
                assert np.array_equal(grad32, grad64)

    def test_config_round_trips(self):
        config = VMR2LConfig(model=ModelConfig(inference_dtype="float32"))
        restored = VMR2LConfig.from_dict(config.to_dict())
        assert restored.model.inference_dtype == "float32"


class TestNoGradInference:
    def test_act_same_action_under_no_grad(self, env, observation, policy):
        """Same sampled action and mask, and the same numbers bit for bit:
        both routes run the one attention kernel."""
        tracked = policy.act(observation, pm_mask_fn=env.pm_action_mask, rng=np.random.default_rng(5))
        with no_grad():
            untracked = policy.act(
                observation, pm_mask_fn=env.pm_action_mask, rng=np.random.default_rng(5)
            )
        assert tracked.vm_index == untracked.vm_index
        assert tracked.pm_index == untracked.pm_index
        np.testing.assert_array_equal(tracked.pm_mask, untracked.pm_mask)
        assert untracked.log_prob == tracked.log_prob
        assert untracked.value == tracked.value
        np.testing.assert_array_equal(untracked.vm_probs, tracked.vm_probs)
        np.testing.assert_array_equal(untracked.pm_probs, tracked.pm_probs)

    def test_no_grad_is_thread_local(self):
        """Concurrent serving threads must not strand autograd off globally."""
        import threading

        from repro.nn import grad_enabled

        seen = {}
        entered = threading.Event()
        release = threading.Event()

        def worker():
            with no_grad():
                entered.set()
                release.wait(timeout=5)
            seen["worker_after"] = grad_enabled()

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(timeout=5)
        seen["main_during"] = grad_enabled()  # other thread's no_grad is invisible
        release.set()
        thread.join(timeout=5)
        assert seen["main_during"] is True
        assert seen["worker_after"] is True
        assert grad_enabled() is True

    def test_no_grad_skips_graph_construction(self, observation, policy):
        batch = build_feature_batch(observation)
        with no_grad():
            output = policy.extractor(batch)
        assert not output.vm_embeddings.requires_grad
        assert output.vm_embeddings._parents == ()
        # Tracking resumes once the context exits.
        output = policy.extractor(build_feature_batch(observation))
        assert output.vm_embeddings.requires_grad
