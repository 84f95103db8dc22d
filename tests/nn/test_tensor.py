"""Unit and property-based tests for the autograd Tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, concatenate, stack, where


def numerical_grad(fn, x, eps=1e-6):
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x, dtype=float)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn(x)
        flat[i] = original - eps
        down = fn(x)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


class TestBasics:
    def test_wraps_array_and_exposes_shape(self):
        t = Tensor(np.arange(6).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6

    def test_integer_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype.kind == "f"

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_backward_on_non_scalar_without_grad_raises(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_without_requires_grad_raises(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(RuntimeError):
            t.backward()


class TestArithmeticGradients:
    def test_add_grad(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_mul_grad(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b.data)
        np.testing.assert_allclose(b.grad, a.data)

    def test_div_grad(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, 1.0 / b.data)
        np.testing.assert_allclose(b.grad, -a.data / b.data ** 2)

    def test_pow_grad(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (a ** 3).sum().backward()
        np.testing.assert_allclose(a.grad, 3 * a.data ** 2)

    def test_broadcast_add_grad_sums_over_broadcast_axis(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((4, 3)))
        np.testing.assert_allclose(b.grad, np.full(3, 4.0))

    def test_rsub_and_neg(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (5.0 - a).sum().backward()
        np.testing.assert_allclose(a.grad, -np.ones(2))

    def test_scalar_mul(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (3.0 * a).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(2, 3.0))


class TestMatmul:
    def test_matmul_2d_grads(self):
        rng = np.random.default_rng(0)
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 2))
        a = Tensor(a_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        (a @ b).sum().backward()

        expected_a = numerical_grad(lambda x: (x @ b_val).sum(), a_val.copy())
        expected_b = numerical_grad(lambda x: (a_val @ x).sum(), b_val.copy())
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, expected_b, atol=1e-5)

    def test_matmul_3d_batched(self):
        rng = np.random.default_rng(1)
        a_val = rng.normal(size=(2, 3, 4))
        b_val = rng.normal(size=(2, 4, 5))
        a = Tensor(a_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        (a @ b).sum().backward()

        expected_a = numerical_grad(lambda x: (x @ b_val).sum(), a_val.copy())
        expected_b = numerical_grad(lambda x: (a_val @ x).sum(), b_val.copy())
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, expected_b, atol=1e-5)


class TestShapeOps:
    def test_reshape_grad(self):
        a = Tensor(np.arange(6, dtype=float), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_transpose_grad(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        scale = Tensor(np.arange(6, dtype=float).reshape(3, 2))
        (a.transpose() * scale).sum().backward()
        np.testing.assert_allclose(a.grad, scale.data.T)

    def test_swapaxes_grad(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        a.swapaxes(0, 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3, 4)))

    def test_getitem_grad(self):
        a = Tensor(np.arange(10, dtype=float), requires_grad=True)
        a[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(a.grad, expected)

    def test_getitem_fancy_index_grad_accumulates(self):
        a = Tensor(np.arange(5, dtype=float), requires_grad=True)
        idx = np.array([0, 0, 3])
        a[idx].sum().backward()
        expected = np.array([2.0, 0.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(a.grad, expected)

    def test_unsqueeze_squeeze_roundtrip(self):
        a = Tensor(np.ones((3,)), requires_grad=True)
        a.unsqueeze(0).squeeze(0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_grad(self):
        a = Tensor(np.arange(4, dtype=float), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 0.25))

    def test_max_grad_routes_to_argmax(self):
        a = Tensor(np.array([1.0, 5.0, 3.0]), requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_var_matches_numpy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 5))
        t = Tensor(x)
        np.testing.assert_allclose(t.var(axis=1).numpy(), x.var(axis=1), atol=1e-10)


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "relu", "abs"])
    def test_gradients_match_finite_differences(self, op):
        rng = np.random.default_rng(3)
        x_val = rng.uniform(0.2, 2.0, size=(5,))
        x = Tensor(x_val.copy(), requires_grad=True)
        getattr(x, op)().sum().backward()

        def forward(v):
            return getattr(Tensor(v.copy()), op)().sum().item()

        expected = numerical_grad(forward, x_val.copy())
        np.testing.assert_allclose(x.grad, expected, atol=1e-4)

    def test_relu_passes_gradient_only_where_positive(self):
        # The finite-difference check above draws positive inputs only.
        x = Tensor(np.array([-2.0, -0.5, 0.5, 3.0]), requires_grad=True)
        out = x.relu()
        np.testing.assert_array_equal(out.numpy(), [0.0, 0.0, 0.5, 3.0])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0, 1.0])

    def test_clip_grad_zero_outside_range(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestGraphOps:
    def test_concatenate_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        out = concatenate([a, b], axis=0)
        (out * Tensor(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(b.grad, [4.0, 5.0])

    def test_stack_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_where_grad_routes_by_condition(self):
        a = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        cond = np.array([True, False, True, False])
        where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0, 1.0])

    def test_grad_accumulates_when_tensor_reused(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        (a * a).backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_diamond_graph(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = a * 2
        c = a * 3
        (b + c).backward()
        np.testing.assert_allclose(a.grad, [5.0])


class TestPropertyBased:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5),
            elements=st.floats(-10, 10, allow_nan=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_sum_grad_is_ones(self, x):
        t = Tensor(x.copy(), requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(x))

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=(4,),
            elements=st.floats(-5, 5, allow_nan=False),
        ),
        hnp.arrays(
            dtype=np.float64,
            shape=(4,),
            elements=st.floats(-5, 5, allow_nan=False),
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_addition_commutes_in_value_and_grad(self, x, y):
        a1 = Tensor(x.copy(), requires_grad=True)
        b1 = Tensor(y.copy(), requires_grad=True)
        (a1 + b1).sum().backward()
        a2 = Tensor(x.copy(), requires_grad=True)
        b2 = Tensor(y.copy(), requires_grad=True)
        (b2 + a2).sum().backward()
        np.testing.assert_allclose(a1.grad, a2.grad)
        np.testing.assert_allclose(b1.grad, b2.grad)
