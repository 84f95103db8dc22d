"""The single-observation sparse tree path, float32 inference and no-grad mode.

PR 2 grouped the tree-local attention stage for stacked batches only; this
suite pins the retirement of the dense single-observation path:

* batch=1 grouped tree attention is numerically identical (≤1e-8, in practice
  machine precision) to the old dense masked path for ``act`` and
  ``evaluate_actions`` — outputs AND gradients;
* the dense ``S×S`` tree mask is never materialized outside reference mode;
* float32 inference (``inference_dtype``) stays within documented tolerance
  of the float64 path, keeps every attention layer's output float32 (no
  silent upcast) and leaves gradient-tracking forwards float64;
* ``repro.nn.no_grad`` inference produces bitwise-identical numbers.
"""

import numpy as np
import pytest

import repro.core.features as features_module
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
    reference_ops,
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


class _DenseTreePath:
    """Force the pre-PR-4 dense masked tree stage (grouping disabled)."""

    def __enter__(self):
        self._original = FeatureBatch.tree_grouping
        FeatureBatch.tree_grouping = lambda self: None
        return self

    def __exit__(self, *exc):
        FeatureBatch.tree_grouping = self._original
        return False


def grads_of(policy):
    return [None if p.grad is None else p.grad.copy() for p in policy.parameters()]


def clear_grads(policy):
    for p in policy.parameters():
        p.grad = None


class TestSingleObservationGroupedParity:
    def test_act_matches_dense_path(self, env, observation, policy):
        grouped = policy.act(observation, pm_mask_fn=env.pm_action_mask, rng=np.random.default_rng(5))
        with _DenseTreePath():
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
        with _DenseTreePath():
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
        """The acceptance assertion: no S×S tree mask outside reference mode."""

        def boom(membership):
            raise AssertionError("dense S×S tree mask materialized on the hot path")

        monkeypatch.setattr(features_module, "build_tree_mask", boom)
        output = policy.act(observation, pm_mask_fn=env.pm_action_mask, rng=np.random.default_rng(5))
        policy.evaluate_actions(
            observation,
            output.vm_index,
            output.pm_index,
            observation.vm_mask,
            env.pm_action_mask(output.vm_index),
        )

    def test_reference_mode_still_uses_dense_mask(self, env, observation, policy):
        """The seed-substrate benchmark path keeps the dense stage reachable."""
        with reference_ops():
            batch = build_feature_batch(observation)
            policy.extractor(batch)
            assert batch._dense_tree_mask is not None
            seq = observation.num_pms + observation.num_vms
            assert batch._dense_tree_mask.shape == (seq, seq)

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
