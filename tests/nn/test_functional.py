"""Tests for repro.nn.functional: softmax family, distribution helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor
from repro.nn import functional as F


class TestSoftmax:
    def test_softmax_sums_to_one(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        probs = F.softmax(logits)
        np.testing.assert_allclose(probs.numpy().sum(axis=-1), [1.0, 1.0])

    def test_softmax_is_shift_invariant(self):
        logits = np.array([1.0, 2.0, 3.0])
        p1 = F.softmax(Tensor(logits)).numpy()
        p2 = F.softmax(Tensor(logits + 100.0)).numpy()
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_softmax_handles_large_values(self):
        probs = F.softmax(Tensor(np.array([1e4, 0.0, -1e4]))).numpy()
        assert np.isfinite(probs).all()
        assert probs[0] == pytest.approx(1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(3, 5)))
        np.testing.assert_allclose(
            F.log_softmax(logits).numpy(),
            np.log(F.softmax(logits).numpy()),
            atol=1e-10,
        )

    def test_softmax_gradient_matches_analytic(self):
        logits = Tensor(np.array([0.5, -0.3, 1.2]), requires_grad=True)
        probs = F.softmax(logits)
        probs[0].backward()
        p = F.softmax(Tensor(logits.data)).numpy()
        expected = p[0] * (np.eye(3)[0] - p)
        np.testing.assert_allclose(logits.grad, expected, atol=1e-8)


class TestMaskedSoftmax:
    def test_masked_entries_get_zero_probability(self):
        logits = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        mask = np.array([True, False, True, False])
        probs = F.masked_softmax(logits, mask).numpy()
        assert probs[1] == pytest.approx(0.0, abs=1e-9)
        assert probs[3] == pytest.approx(0.0, abs=1e-9)
        assert probs.sum() == pytest.approx(1.0)

    def test_unmasked_reduces_to_softmax(self):
        logits = Tensor(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            F.masked_softmax(logits, None).numpy(), F.softmax(logits).numpy()
        )

    def test_all_masked_returns_uniform_without_nan(self):
        logits = Tensor(np.array([1.0, 2.0, 3.0]))
        probs = F.masked_softmax(logits, np.zeros(3, dtype=bool)).numpy()
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs, np.full(3, 1 / 3))

    def test_single_feasible_entry_gets_probability_one(self):
        logits = Tensor(np.array([-5.0, 10.0, 3.0]))
        mask = np.array([False, False, True])
        probs = F.masked_softmax(logits, mask).numpy()
        np.testing.assert_allclose(probs, [0.0, 0.0, 1.0], atol=1e-9)

    @given(
        hnp.arrays(dtype=np.float64, shape=(6,), elements=st.floats(-20, 20, allow_nan=False)),
        hnp.arrays(dtype=np.bool_, shape=(6,)),
    )
    @settings(max_examples=50, deadline=None)
    def test_masked_softmax_properties(self, logits, mask):
        probs = F.masked_softmax(Tensor(logits), mask).numpy()
        assert np.all(probs >= -1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        if mask.any():
            assert probs[~mask].sum() == pytest.approx(0.0, abs=1e-6)


class TestCategoricalHelpers:
    def test_log_prob_matches_softmax(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0]]))
        lp = F.categorical_log_prob(logits, np.array([2])).numpy()
        probs = F.softmax(logits).numpy()
        np.testing.assert_allclose(lp, np.log(probs[:, 2]), atol=1e-10)

    def test_entropy_maximal_for_uniform(self):
        uniform = Tensor(np.zeros((1, 4)))
        peaked = Tensor(np.array([[10.0, 0.0, 0.0, 0.0]]))
        assert F.categorical_entropy(uniform).numpy()[0] > F.categorical_entropy(peaked).numpy()[0]
        assert F.categorical_entropy(uniform).numpy()[0] == pytest.approx(np.log(4), abs=1e-6)

    def test_entropy_with_mask_ignores_masked_entries(self):
        logits = Tensor(np.zeros((1, 4)))
        mask = np.array([[True, True, False, False]])
        ent = F.categorical_entropy(logits, mask).numpy()[0]
        assert ent == pytest.approx(np.log(2), abs=1e-6)

    def test_sample_categorical_greedy(self):
        rng = np.random.default_rng(0)
        assert F.sample_categorical(np.array([0.1, 0.7, 0.2]), rng, greedy=True) == 1

    def test_sample_categorical_respects_zero_probability(self):
        rng = np.random.default_rng(0)
        probs = np.array([0.0, 1.0, 0.0])
        samples = {F.sample_categorical(probs, rng) for _ in range(20)}
        assert samples == {1}

    def test_sample_categorical_rejects_invalid(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            F.sample_categorical(np.zeros(3), rng)


class TestUtilities:
    def test_grad_norm(self):
        assert F.grad_norm([np.array([3.0, 4.0]), None]) == pytest.approx(5.0)
        assert F.grad_norm([None]) == 0.0
