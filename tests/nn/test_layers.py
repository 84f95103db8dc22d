"""Tests for Module, layers, attention blocks, optimizers and serialization."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Activation,
    Adam,
    CrossAttentionLayer,
    LayerNorm,
    Linear,
    LinearSchedule,
    MultiHeadAttention,
    Sequential,
    Tensor,
    TransformerEncoderLayer,
    load_module,
    save_module,
)
from repro.nn import functional as F
from repro.nn import init as initializers
from repro.nn import optim


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestModule:
    def test_named_parameters_nested(self, rng):
        model = Sequential(Linear(3, 4, rng=rng), Activation(), Linear(4, 2, rng=rng))
        names = [name for name, _ in model.named_parameters()]
        assert "0.weight" in names and "2.bias" in names
        assert len(names) == 4

    def test_parameter_count(self, rng):
        layer = Linear(3, 4, rng=rng)
        assert sum(param.size for param in layer.parameters()) == 3 * 4 + 4

    def test_state_dict_roundtrip(self, rng):
        model = MLP(3, [8], 2, rng=rng)
        state = model.state_dict()
        other = MLP(3, [8], 2, rng=np.random.default_rng(99))
        other.load_state_dict(state)
        x = Tensor(rng.normal(size=(5, 3)))
        np.testing.assert_allclose(model(x).numpy(), other(x).numpy())

    def test_load_state_dict_strict_mismatch_raises(self, rng):
        model = Linear(3, 4, rng=rng)
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": model.weight.data}, strict=True)

    def test_load_state_dict_shape_mismatch_raises(self, rng):
        model = Linear(3, 4, rng=rng)
        bad = model.state_dict()
        bad["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(bad)


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(5, 7, rng=rng)
        out = layer(Tensor(rng.normal(size=(4, 5))))
        assert out.shape == (4, 7)

    def test_every_linear_has_a_weight_and_a_bias(self, rng):
        layer = Linear(5, 7, rng=rng)
        assert [name for name, _ in layer.named_parameters()] == ["weight", "bias"]
        assert layer.bias.shape == (7,)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bias_is_added_on_every_input_rank(self, rng, dtype):
        layer = Linear(5, 3, rng=rng)
        layer.bias.data = rng.normal(size=3)
        rows = rng.normal(size=(4, 5)).astype(dtype)
        expected = rows.astype(np.float64) @ layer.weight.data.T + layer.bias.data
        tolerance = 1e-12 if dtype == np.float64 else 1e-5
        batched = layer(Tensor(rows)).numpy()
        assert batched.dtype == dtype
        np.testing.assert_allclose(batched, expected, rtol=tolerance, atol=tolerance)
        for row, want in zip(rows, expected):
            np.testing.assert_allclose(layer(Tensor(row)).numpy(), want, rtol=tolerance, atol=tolerance)

    def test_gradients_flow_to_weight_and_bias(self, rng):
        layer = Linear(3, 2, rng=rng)
        out = layer(Tensor(rng.normal(size=(6, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None and layer.weight.grad.shape == (2, 3)
        assert layer.bias.grad is not None and layer.bias.grad.shape == (2,)

    def test_invalid_dims_raise(self, rng):
        with pytest.raises(ValueError):
            Linear(0, 3, rng=rng)


class TestLayerNorm:
    def test_normalizes_last_dim(self, rng):
        layer = LayerNorm(8)
        out = layer(Tensor(rng.normal(5.0, 3.0, size=(4, 8)))).numpy()
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-2)

    def test_variance_guard_is_the_module_constant(self):
        # A constant row has zero variance: the guard alone keeps it finite.
        layer = LayerNorm(3)
        layer.weight.data = np.full(3, 2.0)
        x = np.array([[1.0, 2.0, 4.0], [5.0, 5.0, 5.0]])
        centered = x - x.mean(axis=-1, keepdims=True)
        expected = 2.0 * centered / np.sqrt(centered.var(axis=-1, keepdims=True) + F.LAYER_NORM_EPS)
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), expected, rtol=1e-12)
        assert np.all(layer(Tensor(x)).numpy()[1] == 0.0)

    def test_gradients_flow(self, rng):
        layer = LayerNorm(4)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        assert layer.weight.grad is not None


class TestMLPAndEmbedding:
    """MLPs, which the extractors use as their PM/VM feature embeddings."""

    def test_mlp_shapes(self, rng):
        mlp = MLP(6, [16, 16], 3, rng=rng)
        assert mlp(Tensor(rng.normal(size=(10, 6)))).shape == (10, 3)

    def test_mlp_puts_a_relu_between_linear_layers_and_ends_linear(self, rng):
        mlp = MLP(4, [8, 8], 3, rng=rng)
        kinds = [type(layer) for layer in mlp.network]
        assert kinds == [Linear, Activation, Linear, Activation, Linear]
        # The ReLU slots keep the Linear layers at the names checkpoints record.
        assert [name for name, _ in mlp.named_parameters()] == [
            f"network.{index}.{field}" for index in (0, 2, 4) for field in ("weight", "bias")
        ]
        # No activation follows the output layer, so outputs can be negative.
        assert (mlp(Tensor(rng.normal(size=(64, 4)))).numpy() < 0).any()


class TestActivation:
    def test_activation_is_a_parameterless_relu(self, rng):
        x = rng.normal(size=(6, 5))
        activation = Activation()
        np.testing.assert_array_equal(activation(Tensor(x)).numpy(), np.maximum(x, 0.0))
        assert list(activation.named_parameters()) == []


class TestAttention:
    def test_output_shape(self, rng):
        attn = MultiHeadAttention(16, 4, rng=rng)
        x = Tensor(rng.normal(size=(6, 16)))
        assert attn(x, x, x).shape == (6, 16)

    def test_embed_dim_must_divide_heads(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, rng=rng)

    def test_mask_blocks_information_flow(self, rng):
        attn = MultiHeadAttention(8, 2, rng=rng)
        query = Tensor(rng.normal(size=(2, 8)))
        keys_a = rng.normal(size=(3, 8))
        keys_b = keys_a.copy()
        keys_b[2] += 100.0  # huge perturbation on a masked key
        mask = np.array([[True, True, False], [True, True, False]])
        out_a = attn(query, Tensor(keys_a), Tensor(keys_a), mask=mask).numpy()
        out_b = attn(query, Tensor(keys_b), Tensor(keys_b), mask=mask).numpy()
        np.testing.assert_allclose(out_a, out_b, atol=1e-8)

    def test_fully_masked_query_gets_zero_output(self, rng):
        attn = MultiHeadAttention(8, 2, rng=rng)
        x = Tensor(rng.normal(size=(3, 8)))
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, :] = True
        out = attn(x, x, x, mask=mask).numpy()
        # Rows 1-2 have no allowed keys; their pre-projection context is zero,
        # so the output equals the output projection bias.
        np.testing.assert_allclose(out[1], out[2], atol=1e-10)

    def test_returns_attention_weights(self, rng):
        attn = MultiHeadAttention(8, 2, rng=rng)
        x = Tensor(rng.normal(size=(4, 8)))
        out, weights = attn(x, x, x, return_weights=True)
        assert weights.shape == (4, 4)
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones(4), atol=1e-6)

    def test_encoder_layer_preserves_shape(self, rng):
        layer = TransformerEncoderLayer(16, 4, rng=rng)
        x = Tensor(rng.normal(size=(5, 16)))
        assert layer(x).shape == (5, 16)

    def test_cross_attention_shapes_and_weights(self, rng):
        layer = CrossAttentionLayer(16, 4, rng=rng)
        queries = Tensor(rng.normal(size=(3, 16)))
        keys = Tensor(rng.normal(size=(7, 16)))
        out, weights = layer(queries, keys, return_weights=True)
        assert out.shape == (3, 16)
        assert weights.shape == (3, 7)

    def test_gradients_flow_through_attention(self, rng):
        attn = MultiHeadAttention(8, 2, rng=rng)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        attn(x, x, x).sum().backward()
        assert x.grad is not None
        assert attn.q_proj.weight.grad is not None


class TestOptimizers:
    def _loss(self, model, x, y):
        pred = model(x)
        diff = pred - y
        return (diff * diff).mean()

    def test_adam_reduces_loss_on_regression(self, rng):
        model = MLP(3, [16], 1, rng=rng)
        optimizer = Adam(model.parameters(), lr=1e-2)
        x = Tensor(rng.normal(size=(64, 3)))
        y = Tensor(np.sin(x.numpy().sum(axis=1, keepdims=True)))
        initial = self._loss(model, x, y).item()
        for _ in range(150):
            optimizer.zero_grad()
            loss = self._loss(model, x, y)
            loss.backward()
            optimizer.step()
        assert loss.item() < initial * 0.5

    def test_optimizer_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=1e-3)

    def test_invalid_lr_raises(self, rng):
        with pytest.raises(ValueError):
            Adam(Linear(2, 2, rng=rng).parameters(), lr=-1.0)

    def test_clip_gradients(self, rng):
        model = Linear(3, 3, rng=rng)
        optimizer = Adam(model.parameters(), lr=1e-3)
        out = model(Tensor(rng.normal(size=(4, 3)) * 100))
        (out * out).sum().backward()
        norm_before = optimizer.clip_gradients(max_norm=1.0)
        assert norm_before > 1.0
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        total = np.sqrt(sum(float((g ** 2).sum()) for g in grads))
        assert total == pytest.approx(1.0, rel=1e-5)

    def test_adam_state_dict_roundtrip(self, rng):
        model = Linear(2, 2, rng=rng)
        optimizer = Adam(model.parameters(), lr=1e-3)
        out = model(Tensor(rng.normal(size=(4, 2))))
        out.sum().backward()
        optimizer.step()
        state = optimizer.state_dict()
        other = Adam(model.parameters(), lr=1e-3)
        other.load_state_dict(state)
        assert other._step_count == 1
        assert set(state) == {"lr", "step_count", "m", "v"}

    def test_adam_loads_a_state_with_the_retired_keys(self, rng):
        model = Linear(2, 2, rng=rng)
        optimizer = Adam(model.parameters(), lr=1e-3)
        optimizer.load_state_dict({"lr": 5e-4, "eps": 1e-8, "weight_decay": 0.0, "step_count": 3})
        assert optimizer.lr == 5e-4 and optimizer._step_count == 3

    def test_adam_step_is_the_bias_corrected_update(self, rng):
        model = Linear(2, 2, rng=rng)
        optimizer = Adam(model.parameters(), lr=1e-2)
        start = model.weight.data.copy()
        grad = rng.normal(size=(2, 2))
        model.weight.grad = grad
        optimizer.step()
        m_hat = (1.0 - optim.ADAM_BETA1) * grad / (1.0 - optim.ADAM_BETA1)
        v_hat = (1.0 - optim.ADAM_BETA2) * grad ** 2 / (1.0 - optim.ADAM_BETA2)
        expected = start - 1e-2 * m_hat / (np.sqrt(v_hat) + optim.ADAM_EPS)
        np.testing.assert_allclose(model.weight.data, expected, rtol=1e-12)

    def test_linear_schedule(self):
        schedule = LinearSchedule(1.0, 0.0, total_steps=10)
        assert schedule.value(0) == pytest.approx(1.0)
        assert schedule.value(5) == pytest.approx(0.5)
        assert schedule.value(10) == pytest.approx(0.0)
        assert schedule.value(20) == pytest.approx(0.0)


class TestInitializers:
    def test_orthogonal_produces_orthonormal_rows(self, rng):
        w = initializers.orthogonal((4, 8), rng)
        gram = w @ w.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_orthogonal_tall_shape_has_orthonormal_columns_scaled_by_gain(self, rng):
        w = initializers.orthogonal((8, 3), rng, gain=np.sqrt(2.0))
        np.testing.assert_allclose(w.T @ w, 2.0 * np.eye(3), atol=1e-8)

    def test_orthogonal_needs_two_dimensions(self, rng):
        with pytest.raises(ValueError):
            initializers.orthogonal((5,), rng)

    def test_linear_draws_orthogonal_weight_and_zero_bias(self):
        layer = Linear(6, 4, rng=np.random.default_rng(7), gain=0.01)
        expected = initializers.orthogonal((4, 6), np.random.default_rng(7), 0.01)
        np.testing.assert_array_equal(layer.weight.data, expected)
        np.testing.assert_array_equal(layer.bias.data, np.zeros(4))


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path, rng):
        model = MLP(4, [8], 2, rng=rng)
        path = save_module(model, tmp_path / "ckpt", metadata={"step": 7})
        clone = MLP(4, [8], 2, rng=np.random.default_rng(123))
        meta = load_module(clone, path)
        assert meta == {"step": 7}
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(model(x).numpy(), clone(x).numpy())

    def test_checkpoint_under_two_megabytes(self, tmp_path, rng):
        """The paper reports VMR2L checkpoints are < 2 MB."""
        from repro.nn import checkpoint_size_bytes

        model = MLP(32, [128, 128], 64, rng=rng)
        path = save_module(model, tmp_path / "small")
        assert checkpoint_size_bytes(path) < 2 * 1024 * 1024


class TestPackage:
    def test_every_exported_name_resolves(self):
        import repro.nn as nn

        assert len(nn.__all__) == len(set(nn.__all__))
        missing = [name for name in nn.__all__ if not hasattr(nn, name)]
        assert missing == []
