"""Parity suite for the attention kernels.

Two contracts live here:

* the ONE no-grad kernel (``repro.nn.attention._attention_array``: row-tiled
  scores, normalisation deferred to the context) computes the same function
  as the grad-tracking dense forward — ≤1e-12 in float64, f32 slack in
  float32 — whatever the tile height, batch layout, mask or ``q_len``/``k_len``,
  with exactly-zero dead rows, and never allocates an ``S×S`` tensor;
* the incremental update (``TransformerEncoderLayer.forward_array_incremental``
  from an ``AttentionState`` plus the changed rows) computes the same function
  as the full kernel on the new input — ≤1e-12 per step, ≤1e-10 over a chain
  of 50 — whatever the changed-set size, batch raggedness or dtype, rescoring
  the rows where subtraction would be unsafe, and never holds an ``S×S`` array;
* the chunked streaming-softmax *autograd node* (what ``chunk_size`` /
  ``ModelConfig.attention_impl="chunked"`` still select) matches the dense
  node — forward and gradients, float64 and float32 — and replays the dense
  operation order bit-for-bit when one chunk covers every key.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.attention import SparseAttentionExtractor
from repro.core.config import ModelConfig
from repro.core.features import build_feature_batch
from repro.env.observation import Observation
from repro.nn import (
    AttentionMask,
    AttentionState,
    MultiHeadAttention,
    Tensor,
    TransformerEncoderLayer,
    no_grad,
)
from repro.nn import attention as attention_module

HEADS = 4


def _pair(chunk_size, compute_dtype=None, seed=3):
    dense = MultiHeadAttention(
        32, HEADS, rng=np.random.default_rng(seed), compute_dtype=compute_dtype
    )
    chunked = MultiHeadAttention(
        32, HEADS, rng=np.random.default_rng(seed), compute_dtype=compute_dtype,
        chunk_size=chunk_size,
    )
    return dense, chunked


def _random_mask(rng, q_len, k_len, dead_row=None):
    mask = rng.random((q_len, k_len)) < 0.4
    np.einsum("ii->i", mask[:, :q_len])[: min(q_len, k_len)] = True
    if dead_row is not None:
        mask[dead_row] = False
    return mask


def _self_attend(layer, x, **kwargs):
    return layer(Tensor(x), Tensor(x), Tensor(x), **kwargs)


def _tile_rows(monkeypatch, rows, batch, k_len, itemsize=8):
    """Shrink the kernel's byte budget so one tile holds ``rows`` query rows."""
    monkeypatch.setattr(
        attention_module, "_SCORE_TILE_BYTES", rows * batch * HEADS * k_len * itemsize
    )


class TestNoGradKernel:
    """No-grad forward (the row-tiled kernel) vs the grad-tracking dense forward."""

    Q_LEN = 41

    # Tile heights: the default budget (everything in one tile), q_len below
    # the tile height, equal to it, a divisor-free height (41 = 5·8 + 1), one row.
    @pytest.mark.parametrize("rows", [None, 64, 41, 8, 1])
    @pytest.mark.parametrize(
        "batch,mask_kind",
        [(batch, kind) for batch in (None, 1, 3) for kind in ("none", "2d", "3d")
         if batch is not None or kind != "3d"],
    )
    def test_matches_tracking_dense(self, monkeypatch, rows, batch, mask_kind):
        rng = np.random.default_rng(0)
        q_len = self.Q_LEN
        x = rng.normal(size=(q_len, 32) if batch is None else (batch, q_len, 32))
        dead = np.zeros(x.shape[:-1], dtype=bool)
        mask = None
        if mask_kind == "2d":
            mask = _random_mask(rng, q_len, q_len, dead_row=4)
            dead[..., 4] = True
        elif mask_kind == "3d":
            mask = np.stack(
                [_random_mask(rng, q_len, q_len, dead_row=row) for row in range(batch)]
            )
            dead[np.arange(batch), np.arange(batch)] = True
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        expected = _self_attend(layer, x, mask=mask).data
        if rows is not None:
            _tile_rows(monkeypatch, rows, batch or 1, q_len)
        with no_grad():
            actual = _self_attend(layer, x, mask=mask).data
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)
        # Fully-masked query rows: exactly zero context, so exactly the
        # output-projection bias — on both paths.
        bias_row = layer.out_proj.bias.data
        assert np.array_equal(actual[dead], np.broadcast_to(bias_row, actual[dead].shape))
        assert np.array_equal(expected[dead], actual[dead])

    @pytest.mark.parametrize("rows", [None, 4])
    @pytest.mark.parametrize("batch", [None, 2])
    def test_cross_attention_and_weights(self, monkeypatch, rows, batch):
        """``q_len != k_len`` plus ``return_weights``: head-mean probabilities
        written per tile, rows summing to one, dead rows exactly zero."""
        rng = np.random.default_rng(3)
        lead = () if batch is None else (batch,)
        q = rng.normal(size=lead + (11, 32))
        kv = rng.normal(size=lead + (53, 32))
        mask = _random_mask(rng, 11, 53, dead_row=2)
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        expected, expected_weights = layer(
            Tensor(q), Tensor(kv), Tensor(kv), mask=mask, return_weights=True
        )
        if rows is not None:
            _tile_rows(monkeypatch, rows, batch or 1, 53)
        with no_grad():
            actual, weights = layer(
                Tensor(q), Tensor(kv), Tensor(kv), mask=mask, return_weights=True
            )
        assert weights.shape == lead + (11, 53)
        np.testing.assert_allclose(actual.data, expected.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(weights, expected_weights, rtol=0, atol=1e-12)
        sums = weights.sum(axis=-1)
        assert np.array_equal(sums[..., 2], np.zeros(lead))
        np.testing.assert_allclose(np.delete(sums, 2, axis=-1), 1.0, rtol=0, atol=1e-12)
        assert not weights[..., ~mask].any()

    @pytest.mark.parametrize("rows", [None, 7])
    @pytest.mark.parametrize("stream", ["float64", "float32"])
    def test_float32_compute_dtype(self, monkeypatch, rows, stream):
        """``compute_dtype=float32`` on an f64 stream, and an all-f32 stream
        (``inference_dtype``), through the same dtype-generic kernel."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 33, 32))
        mask = _random_mask(rng, 33, 33, dead_row=5)
        reference = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        expected = _self_attend(reference, x, mask=mask).data
        layer = MultiHeadAttention(
            32, HEADS, rng=np.random.default_rng(3),
            compute_dtype=np.float32 if stream == "float64" else None,
        )
        if rows is not None:
            _tile_rows(monkeypatch, rows, 2, 33, itemsize=4)
        with no_grad():
            actual = _self_attend(layer, x.astype(stream), mask=mask).data
        assert actual.dtype == np.dtype(stream)
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_one_tile_equals_many_tiles(self, monkeypatch, batch):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(batch, 50, 32))
        mask = _random_mask(rng, 50, 50, dead_row=9)
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        with no_grad():
            one_out, one_weights = _self_attend(layer, x, mask=mask, return_weights=True)
            _tile_rows(monkeypatch, 6, batch, 50)
            many_out, many_weights = _self_attend(layer, x, mask=mask, return_weights=True)
        np.testing.assert_allclose(many_out.data, one_out.data, rtol=0, atol=1e-13)
        np.testing.assert_allclose(many_weights, one_weights, rtol=0, atol=1e-13)

    def test_chunk_size_does_not_select_a_no_grad_kernel(self):
        """``chunk_size`` picks the autograd node only: no-grad is one kernel."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 30, 32))
        dense, chunked = _pair(chunk_size=7)
        with no_grad():
            assert np.array_equal(_self_attend(chunked, x).data, _self_attend(dense, x).data)


class TestAllocationGuard:
    def test_no_square_temporary(self):
        """A no-grad encoder layer at the large bench size never holds the
        ``heads·S·S`` score tensor (26 MB at S=900) — deterministic, no timing."""
        seq = 900
        dense_scores_bytes = HEADS * seq * seq * 8
        layer = TransformerEncoderLayer(32, HEADS, 64, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(1, seq, 32))

        def forward_peak():
            tracemalloc.start()
            try:
                with no_grad():
                    layer(Tensor(x))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        first = forward_peak()
        second = forward_peak()
        assert first < dense_scores_bytes / 4
        assert second <= first


def _change_rows(rng, x, counts):
    """A copy of ``x`` with ``counts[b]`` random rows of batch item ``b``
    replaced, and the ``(batch, S)`` boolean marking them."""
    changed = np.zeros(x.shape[:2], dtype=bool)
    for item, count in enumerate(counts):
        changed[item, rng.choice(x.shape[1], size=count, replace=False)] = True
    x = x.copy()
    x[changed] = rng.normal(size=(int(changed.sum()), x.shape[2]))
    return x, changed


class TestIncrementalUpdate:
    """``forward_array_incremental`` from the previous state and the changed
    rows vs the full kernel on the same new input."""

    SEQ = 400  # large enough for the update to pay up to ~60 changed rows

    # 0 and 1 changed rows, ~2 % of them, and too many for the update to pay.
    @pytest.mark.parametrize("count,updated", [(0, True), (1, True), (8, True), (150, False)])
    @pytest.mark.parametrize("mode", ["float64", "compute_float32", "stream_float32"])
    def test_update_matches_full_kernel(self, count, updated, mode):
        rng = np.random.default_rng(0)
        stream = np.float32 if mode == "stream_float32" else np.float64
        layer = TransformerEncoderLayer(
            32, HEADS, 64, rng=np.random.default_rng(3),
            compute_dtype=np.float32 if mode == "compute_float32" else None,
        )
        x = rng.normal(size=(1, self.SEQ, 32)).astype(stream)
        _, state = layer.forward_array_incremental(x)
        assert state.recomputed == self.SEQ
        x_new, changed = _change_rows(rng, x, [count])
        x_new = x_new.astype(stream)
        actual, state = layer.forward_array_incremental(x_new, [state], changed)
        assert actual.dtype == stream
        # The update rescored only the changed rows (one clean row stands in
        # for an empty set); past the crossover the full kernel re-seeded.
        assert state.recomputed == (max(count, 1) if updated else self.SEQ)
        np.testing.assert_allclose(
            actual, layer.forward_array(x_new), rtol=0,
            atol=1e-12 if mode == "float64" else 1e-5,
        )

    def test_short_sequences_keep_no_state(self):
        """At S=50 no update can pay: the layer runs ``forward_array`` and
        seeds nothing, so every later step takes the same path."""
        layer = TransformerEncoderLayer(32, HEADS, 64, rng=np.random.default_rng(3))
        x = np.random.default_rng(0).normal(size=(2, 50, 32))
        actual, state = layer.forward_array_incremental(x)
        assert state is None
        assert np.array_equal(actual, layer.forward_array(x))

    def test_chain_of_updates_does_not_drift(self):
        rng = np.random.default_rng(1)
        layer = TransformerEncoderLayer(32, HEADS, 64, rng=np.random.default_rng(3))
        x = rng.normal(size=(1, self.SEQ, 32))
        _, state = layer.forward_array_incremental(x)
        for _ in range(50):
            x, changed = _change_rows(rng, x, [int(rng.integers(1, 12))])
            actual, state = layer.forward_array_incremental(x, [state], changed)
            assert state.recomputed < self.SEQ  # never re-seeded
        np.testing.assert_allclose(actual, layer.forward_array(x), rtol=0, atol=1e-10)

    def test_stacked_ragged_changed_sets(self):
        """Batch items with 0, 3 and 11 changed rows share one update."""
        rng = np.random.default_rng(2)
        layer = TransformerEncoderLayer(32, HEADS, 64, rng=np.random.default_rng(3))
        x = rng.normal(size=(3, self.SEQ, 32))
        _, state = layer.forward_array_incremental(x)
        for _ in range(3):
            kept = [state.row(item) for item in range(3)]  # as the step cache keeps them
            context = state.context.copy()
            x, changed = _change_rows(rng, x, [0, 3, 11])
            actual, state = layer.forward_array_incremental(x, kept, changed)
            assert state.recomputed == 11
            np.testing.assert_allclose(actual, layer.forward_array(x), rtol=0, atol=1e-12)
            # The update worked on a stacked copy: the kept states are untouched.
            assert np.array_equal(np.concatenate([item.context for item in kept]), context)

    def _peaked_layer(self):
        """Query/key weights scaled until every softmax row is near one-hot."""
        layer = TransformerEncoderLayer(32, HEADS, 64, rng=np.random.default_rng(3))
        for projection in (layer.attention.q_proj, layer.attention.k_proj):
            projection.weight.data *= 6.0
        return layer

    def test_guard_rescores_rows_that_lose_their_argmax(self):
        """The changed key IS the argmax of many clean rows: subtracting it
        would cancel their whole row sum, so those rows are rescored."""
        rng = np.random.default_rng(4)
        layer = self._peaked_layer()
        x = rng.normal(size=(1, self.SEQ, 32))
        _, state = layer.forward_array_incremental(x)
        assert np.median(state.row_sum) < 1.5  # near one-hot rows
        scores = np.matmul(state.q, np.swapaxes(state.k, -1, -2))[0]
        favourite = np.bincount(scores.argmax(axis=-1).ravel()).argmax()
        dependants = np.unique(np.nonzero(scores.argmax(axis=-1) == favourite)[1])
        assert dependants.size > 5
        changed = np.zeros((1, self.SEQ), dtype=bool)
        changed[0, favourite] = True
        x_new = x.copy()
        x_new[0, favourite] = rng.normal(size=32)
        actual, state = layer.forward_array_incremental(x_new, [state], changed)
        assert dependants.size <= state.recomputed < self.SEQ  # guard taken, no re-seed
        np.testing.assert_allclose(actual, layer.forward_array(x_new), rtol=0, atol=1e-10)

    def test_guard_rescores_rows_a_new_key_towers_over(self):
        """A changed key scoring far above a row's stored maximum (here past
        exp overflow) is not added against that maximum: the row is rescored."""
        rng = np.random.default_rng(5)
        q, k, v = (rng.normal(size=(1, HEADS, 60, 8)) for _ in range(3))
        stats = (np.empty((1, HEADS, 60)), np.empty((1, HEADS, 60)))
        context, _ = attention_module._attention_array(q, k, v, None, row_stats=stats)
        state = AttentionState(q.copy(), k.copy(), v.copy(), context, *stats, recomputed=60)
        rows = np.array([[7]])
        q_new, v_new = q[:, :, 7:8], v[:, :, 7:8]
        k_new = 300.0 * q[:, :, 20:21]  # q₂₀·k_new = 300·|q₂₀|² ≈ 2400
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            attention_module._update_attention(state, rows, q_new, k_new, v_new)
        assert 1 < state.recomputed < 60
        k[:, :, 7:8] = k_new
        expected, _ = attention_module._attention_array(q, k, v, None)
        np.testing.assert_allclose(state.context, expected, rtol=0, atol=1e-10)

    def test_update_allocates_no_more_than_the_full_forward(self):
        """At the large bench size an updated layer forward — including its
        stacked copy of the previous state — peaks where the full forward does
        (both at the feed-forward stage, with one state alive), far below the
        ``heads·S·S`` scores, and its state has no array with two S-sized axes."""
        seq = 900
        layer = TransformerEncoderLayer(32, HEADS, 64, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, seq, 32))
        x_new, changed = _change_rows(rng, x, [18])

        def peak(*args):
            tracemalloc.start()
            try:
                result = layer.forward_array_incremental(*args)
                return tracemalloc.get_traced_memory()[1], result[1]
            finally:
                tracemalloc.stop()

        full_peak, state = peak(x)
        update_peak, state = peak(x_new, [state], changed)
        assert state.recomputed == 18
        assert update_peak < full_peak + 64 * 1024  # the (1, C) index arrays
        assert update_peak < HEADS * seq * seq * 8 / 4
        for name in AttentionState._ARRAYS:
            assert sum(axis == seq for axis in getattr(state, name).shape) == 1, name


class TestChunkedForwardParity:
    """Grad-tracking forwards: the chunked autograd node vs the dense one."""

    @pytest.mark.parametrize("chunk", [1, 3, 16, 64])
    @pytest.mark.parametrize("batched", [False, True])
    def test_tracking_forward(self, chunk, batched):
        rng = np.random.default_rng(0)
        shape = (3, 41, 32) if batched else (41, 32)
        x = rng.normal(size=shape)
        dense, chunked = _pair(chunk)
        np.testing.assert_allclose(
            _self_attend(chunked, x).data, _self_attend(dense, x).data, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("batched", [False, True])
    def test_single_chunk_is_bitwise(self, batched):
        """One chunk covering all keys replays the dense op order exactly; the
        no-grad kernel reorders one rounding and stays within 1e-12."""
        rng = np.random.default_rng(1)
        shape = (2, 30, 32) if batched else (30, 32)
        x = rng.normal(size=shape)
        dense, chunked = _pair(chunk_size=10_000)
        out_dense = _self_attend(dense, x).data
        assert np.array_equal(_self_attend(chunked, x).data, out_dense)
        with no_grad():
            out_no_grad = _self_attend(chunked, x).data
        np.testing.assert_allclose(out_no_grad, out_dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("chunk", [5, 64])
    def test_masked_with_dead_rows(self, chunk):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(37, 32))
        mask = _random_mask(rng, 37, 37, dead_row=4)
        dense, chunked = _pair(chunk)
        out_dense = _self_attend(dense, x, mask=AttentionMask(mask)).data
        out_chunked = _self_attend(chunked, x, mask=AttentionMask(mask)).data
        np.testing.assert_allclose(out_chunked, out_dense, rtol=0, atol=1e-12)
        # Dead query rows produce exactly zero context on both kernels.
        assert np.array_equal(out_chunked[4], chunked.out_proj.bias.data)
        assert np.array_equal(out_dense[4], dense.out_proj.bias.data)

    def test_cross_attention_shapes(self):
        """Chunking handles q_len != k_len (cross-attention layouts)."""
        rng = np.random.default_rng(3)
        q = rng.normal(size=(11, 32))
        kv = rng.normal(size=(53, 32))
        dense, chunked = _pair(7)
        out_dense = dense(Tensor(q), Tensor(kv), Tensor(kv)).data
        out_chunked = chunked(Tensor(q), Tensor(kv), Tensor(kv)).data
        np.testing.assert_allclose(out_chunked, out_dense, rtol=0, atol=1e-12)

    def test_return_weights_falls_back_to_dense(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 32))
        dense, chunked = _pair(6)
        out_dense, w_dense = _self_attend(dense, x, return_weights=True)
        out_chunked, w_chunked = _self_attend(chunked, x, return_weights=True)
        assert np.array_equal(w_chunked, w_dense)
        assert np.array_equal(out_chunked.data, out_dense.data)


class TestGradientParity:
    @pytest.mark.parametrize("chunk", [3, 17, 64])
    @pytest.mark.parametrize("batched", [False, True])
    def test_input_and_parameter_gradients(self, chunk, batched):
        rng = np.random.default_rng(5)
        shape = (2, 29, 32) if batched else (29, 32)
        x = rng.normal(size=shape)
        mask = _random_mask(rng, 29, 29, dead_row=3)
        dense, chunked = _pair(chunk)
        grad = rng.normal(size=shape)

        results = {}
        for name, layer in (("dense", dense), ("chunked", chunked)):
            xt = Tensor(x.copy(), requires_grad=True)
            out = layer(xt, xt, xt, mask=AttentionMask(mask))
            out.backward(grad.copy())
            results[name] = (
                out.data,
                xt.grad,
                {k: p.grad for k, p in layer.named_parameters()},
            )
        np.testing.assert_allclose(results["chunked"][0], results["dense"][0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(results["chunked"][1], results["dense"][1], rtol=0, atol=1e-10)
        for key, dense_grad in results["dense"][2].items():
            np.testing.assert_allclose(
                results["chunked"][2][key], dense_grad, rtol=0, atol=1e-10,
                err_msg=f"parameter {key}",
            )

    def test_float32_compute_dtype(self):
        """The reduced-precision VM↔VM mode works chunked, within f32 slack."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(33, 32))
        dense, chunked = _pair(8, compute_dtype=np.float32)
        grad = rng.normal(size=(33, 32))
        outs, grads = [], []
        for layer in (dense, chunked):
            xt = Tensor(x.copy(), requires_grad=True)
            out = layer(xt, xt, xt)
            out.backward(grad.copy())
            outs.append(out.data)
            grads.append(xt.grad)
        np.testing.assert_allclose(outs[1], outs[0], rtol=0, atol=1e-5)
        np.testing.assert_allclose(grads[1], grads[0], rtol=0, atol=1e-4)


class TestEncoderLayerAndExtractor:
    def test_encoder_layer_parity(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(45, 32))
        dense = TransformerEncoderLayer(32, 4, 64, rng=np.random.default_rng(8))
        chunked = TransformerEncoderLayer(
            32, 4, 64, rng=np.random.default_rng(8), chunk_size=9
        )
        expected = dense(Tensor(x)).data
        np.testing.assert_allclose(chunked(Tensor(x)).data, expected, rtol=0, atol=1e-12)
        with no_grad():
            np.testing.assert_allclose(dense(Tensor(x)).data, expected, rtol=0, atol=1e-12)

    @staticmethod
    def _observation(rng, num_pms=6, num_vms=40):
        source = rng.integers(0, num_pms, size=num_vms)
        return Observation(
            pm_features=rng.random((num_pms, 8)),
            vm_features=rng.random((num_vms, 14)),
            vm_source_pm=source,
            vm_mask=np.ones(num_vms, dtype=bool),
            vm_ids=list(range(num_vms)),
            pm_ids=list(range(num_pms)),
            migrations_left=10,
        )

    @pytest.mark.parametrize("grad", [False, True])
    def test_extractor_forward_parity(self, grad):
        """ModelConfig.attention_impl="chunked" matches the dense extractor."""
        rng = np.random.default_rng(9)
        observation = self._observation(rng)
        dense = SparseAttentionExtractor(
            ModelConfig(), rng=np.random.default_rng(10)
        )
        chunked = SparseAttentionExtractor(
            ModelConfig(attention_impl="chunked", attention_chunk_size=8),
            rng=np.random.default_rng(10),
        )
        def run(extractor):
            if grad:
                return extractor(build_feature_batch(observation))
            with no_grad():
                return extractor(build_feature_batch(observation))
        out_dense = run(dense)
        out_chunked = run(chunked)
        np.testing.assert_allclose(
            out_chunked.vm_embeddings.data, out_dense.vm_embeddings.data, rtol=0, atol=1e-10
        )
        np.testing.assert_allclose(
            out_chunked.pm_embeddings.data, out_dense.pm_embeddings.data, rtol=0, atol=1e-10
        )
        np.testing.assert_allclose(
            out_chunked.vm_pm_scores, out_dense.vm_pm_scores, rtol=0, atol=1e-10
        )

    def test_extractor_no_grad_matches_tracking(self):
        """Only the final block computes VM→PM weights, on both routes: same
        scores and embeddings from the no-grad kernel as from the Tensor path."""
        observation = self._observation(np.random.default_rng(9))
        extractor = SparseAttentionExtractor(ModelConfig(), rng=np.random.default_rng(10))
        tracked = extractor(build_feature_batch(observation))
        with no_grad():
            untracked = extractor(build_feature_batch(observation))
        assert untracked.vm_pm_scores.shape == (40, 6)
        np.testing.assert_allclose(
            untracked.vm_pm_scores, tracked.vm_pm_scores, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            untracked.vm_embeddings.data, tracked.vm_embeddings.data, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            untracked.pm_embeddings.data, tracked.pm_embeddings.data, rtol=0, atol=1e-12
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(attention_impl="flash3")
        with pytest.raises(ValueError):
            ModelConfig(attention_chunk_size=0)
        with pytest.raises(ValueError):
            MultiHeadAttention(32, 4, chunk_size=-1)
