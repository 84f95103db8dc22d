"""Parity suite for the attention kernel.

Three contracts live here:

* ONE kernel computes every attention (``repro.nn.attention._attention_array``:
  tiled scores, normalisation deferred to the context).  No-grad forwards
  call it directly and grad-tracking forwards through the ``_attention``
  graph node, so the two paths give the same numbers bit for bit; both are
  pinned against the chained Tensor ops (``oracles.oracle_ops()``) —
  forward, weights and input/parameter gradients ≤1e-10 — whatever the tile
  layout (one tile, batch tiles — a short last one included — row tiles),
  mask (2-D/3-D, dead rows, padded items), batch layout, ``q_len``/``k_len``
  (one query or one key included), ``return_weights`` or which of separate
  query/key/value inputs are tracked, with exactly-zero dead rows, up to the
  whole extractor's parameter gradients; the node's recompute backward also
  matches finite differences;
  and neither path ever allocates an ``S×S`` tensor;
* every layer has ONE forward: under ``no_grad`` it computes the
  grad-tracking numbers bit for bit and records no graph;
* float32 streams (``inference_dtype``) run the same kernel within f32 slack;
* the incremental update (``TransformerEncoderLayer.forward_array_incremental``
  from an ``AttentionState`` plus the changed rows) computes the same function
  as the full kernel on the new input — ≤1e-12 per step, ≤1e-10 over a chain
  of 50 — whatever the changed-set size, batch raggedness or dtype, rescoring
  the rows where subtraction would be unsafe, and never holds an ``S×S`` array.
"""

import contextlib
import tracemalloc
from typing import NamedTuple, Optional

import numpy as np
import pytest

from repro.core.attention import SparseAttentionExtractor
from repro.core.config import ModelConfig
from repro.core.features import build_feature_batch, stack_feature_batches
from repro.env.observation import Observation
from repro.nn import (
    AttentionMask,
    AttentionState,
    CrossAttentionLayer,
    FeedForward,
    LayerNorm,
    Linear,
    MLP,
    MultiHeadAttention,
    Tensor,
    TransformerEncoderLayer,
    no_grad,
)
from repro.nn import attention as attention_module

from oracles import oracle_ops

HEADS = 4
#: Node vs the chained oracle.  The oracle renormalises masked softmax rows by
#: ``total + 1e-12``, which alone moves masked outputs by ~1e-12.
REFERENCE_ATOL = 1e-10


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


def _set_tiling(monkeypatch, tiling, batch, q_len, k_len):
    """Budget the kernel for ``tiling`` and check the tiles it then walks:
    "one" (the default budget: everything fits), "items" (one batch item per
    tile), "rows" (4 query rows of every item) or "row" (one)."""
    if tiling == "items":
        monkeypatch.setattr(attention_module, "_SCORE_TILE_BYTES", HEADS * q_len * k_len * 8)
    elif tiling != "one":
        _tile_rows(monkeypatch, 4 if tiling == "rows" else 1, batch, k_len)
    tiles, _ = attention_module._tiles(batch, HEADS, q_len, k_len, 8)
    if tiling == "one":
        assert len(tiles) == 1
    elif tiling == "items":
        assert len(tiles) == batch and all(rows == slice(None) for _, rows in tiles)
    else:
        height = 4 if tiling == "rows" else 1
        assert len(tiles) == -(-q_len // height)
        assert all(items == slice(None) for items, _ in tiles)


class Run(NamedTuple):
    output: np.ndarray
    weights: Optional[np.ndarray]
    query_grad: Optional[np.ndarray]
    key_value_grad: Optional[np.ndarray]
    param_grads: dict


def _run(layer, query, key_value=None, mask=None, return_weights=False, mode="node"):
    """Forward (+ backward of a fixed random probe) of ``layer`` on fresh leaf
    inputs: ``mode`` "node" (grad-tracking, the ``_attention`` node),
    "reference" (grad-tracking under ``oracle_ops()``) or "no_grad" (the
    array path, forward only).  Self-attention when ``key_value`` is None."""
    for param in layer.parameters():
        param.grad = None
    q = Tensor(query.copy(), requires_grad=True)
    kv = q if key_value is None else Tensor(key_value.copy(), requires_grad=True)
    context = {
        "node": contextlib.nullcontext, "reference": oracle_ops, "no_grad": no_grad,
    }[mode]
    with context():
        result = layer(q, kv, kv, mask=mask, return_weights=return_weights)
        output, weights = result if return_weights else (result, None)
        if mode != "no_grad":
            output.backward(np.random.default_rng(99).normal(size=output.shape))
    return Run(
        output.data, weights, q.grad, None if key_value is None else kv.grad,
        {name: param.grad for name, param in layer.named_parameters()},
    )


def _assert_runs_close(actual: Run, expected: Run, atol=REFERENCE_ATOL):
    np.testing.assert_allclose(actual.output, expected.output, rtol=0, atol=atol)
    for name in ("weights", "query_grad", "key_value_grad"):
        if getattr(expected, name) is not None:
            np.testing.assert_allclose(
                getattr(actual, name), getattr(expected, name), rtol=0, atol=atol, err_msg=name
            )
    for key, grad in expected.param_grads.items():
        np.testing.assert_allclose(
            actual.param_grads[key], grad, rtol=0, atol=atol, err_msg=f"parameter {key}"
        )


class TestOneKernel:
    """The node and the no-grad path vs the chained oracle, over tile layouts."""

    Q_LEN = 41  # divisor-free: 41 = 10·4 + 1

    @pytest.mark.parametrize("tiling", ["one", "items", "rows", "row"])
    @pytest.mark.parametrize(
        "batch,mask_kind",
        [(batch, kind) for batch in (None, 1, 3) for kind in ("none", "2d", "3d")
         if batch is not None or kind != "3d"],
    )
    def test_self_attention_matches_reference(self, monkeypatch, tiling, batch, mask_kind):
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
        expected = _run(layer, x, mask=mask, mode="reference")
        _set_tiling(monkeypatch, tiling, batch or 1, q_len, q_len)
        node = _run(layer, x, mask=mask)
        _assert_runs_close(node, expected)
        # One kernel: the no-grad path computes the node's numbers exactly.
        assert np.array_equal(_run(layer, x, mask=mask, mode="no_grad").output, node.output)
        # Fully-masked query rows: exactly zero context, so exactly the
        # output-projection bias.
        bias_row = layer.out_proj.bias.data
        assert np.array_equal(node.output[dead], np.broadcast_to(bias_row, node.output[dead].shape))

    @pytest.mark.parametrize("tiling", ["one", "items", "rows", "row"])
    @pytest.mark.parametrize("batch", [None, 2])
    def test_cross_attention_and_weights(self, monkeypatch, tiling, batch):
        """``q_len != k_len`` plus ``return_weights`` (a 2-D mask unbatched, a
        3-D one batched): head-mean probabilities written per tile, rows
        summing to one; the dead row's weights, output and query gradient are
        exactly zero."""
        rng = np.random.default_rng(3)
        lead = () if batch is None else (batch,)
        q = rng.normal(size=lead + (11, 32))
        kv = rng.normal(size=lead + (53, 32))
        mask = _random_mask(rng, 11, 53, dead_row=2)
        if batch is not None:
            mask = np.stack([mask, _random_mask(rng, 11, 53, dead_row=2)])
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        expected = _run(layer, q, kv, mask=mask, return_weights=True, mode="reference")
        _set_tiling(monkeypatch, tiling, batch or 1, 11, 53)
        node = _run(layer, q, kv, mask=mask, return_weights=True)
        _assert_runs_close(node, expected)
        untracked = _run(layer, q, kv, mask=mask, return_weights=True, mode="no_grad")
        assert np.array_equal(untracked.output, node.output)
        assert np.array_equal(untracked.weights, node.weights)
        weights = node.weights
        assert weights.shape == lead + (11, 53)
        sums = weights.sum(axis=-1)
        assert np.array_equal(sums[..., 2], np.zeros(lead))
        np.testing.assert_allclose(np.delete(sums, 2, axis=-1), 1.0, rtol=0, atol=1e-12)
        assert not weights[..., ~mask].any()
        assert not node.query_grad[..., 2, :].any()

    @pytest.mark.parametrize("rows", [None, 7])
    def test_float32_stream(self, monkeypatch, rows):
        """An all-f32 stream (``inference_dtype``) through the same
        dtype-generic kernel, within f32 slack of the f64 reference."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 33, 32))
        mask = _random_mask(rng, 33, 33, dead_row=5)
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        expected = _run(layer, x, mask=mask, mode="reference").output
        if rows is not None:
            _tile_rows(monkeypatch, rows, 2, 33, itemsize=4)
        with no_grad():
            actual = _self_attend(layer, x.astype(np.float32), mask=mask).data
        assert actual.dtype == np.float32
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-5)

    def test_tile_layouts_agree(self, monkeypatch):
        """One tile, batch tiles and row tiles: forward and gradients agree
        to rounding (the row tiles sum dK/dV over tiles)."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 50, 32))
        mask = _random_mask(rng, 50, 50, dead_row=9)
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        runs = {}
        for tiling in ("one", "items", "rows"):
            with monkeypatch.context() as patch:
                _set_tiling(patch, tiling, 3, 50, 50)
                runs[tiling] = _run(layer, x, mask=mask, return_weights=True)
        for tiling in ("items", "rows"):
            _assert_runs_close(runs[tiling], runs["one"], atol=1e-13)

    @pytest.mark.parametrize("tiling", ["one", "items"])
    @pytest.mark.parametrize("q_len,k_len", [(1, 1), (1, 9), (9, 1), (9, 2)])
    def test_single_query_or_key(self, monkeypatch, tiling, q_len, k_len):
        """Degenerate lengths: one query row, or one key (every softmax row
        is then exactly one)."""
        rng = np.random.default_rng(15)
        q = rng.normal(size=(3, q_len, 32))
        kv = rng.normal(size=(3, k_len, 32))
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        expected = _run(layer, q, kv, return_weights=True, mode="reference")
        _set_tiling(monkeypatch, tiling, 3, q_len, k_len)
        node = _run(layer, q, kv, return_weights=True)
        _assert_runs_close(node, expected)
        if k_len == 1:
            assert np.array_equal(node.weights, np.ones((3, q_len, 1)))

    @pytest.mark.parametrize("tiling", ["one", "items", "rows", "row"])
    def test_more_queries_than_keys(self, monkeypatch, tiling):
        """The VM→PM layout: many queries over few keys, a 3-D mask with a
        different dead query row per item."""
        rng = np.random.default_rng(16)
        q = rng.normal(size=(2, 53, 32))
        kv = rng.normal(size=(2, 11, 32))
        mask = rng.random((2, 53, 11)) < 0.4
        mask[:, :, 0] = True
        dead = (np.arange(2), np.array([5, 40]))
        mask[dead] = False
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        expected = _run(layer, q, kv, mask=mask, return_weights=True, mode="reference")
        _set_tiling(monkeypatch, tiling, 2, 53, 11)
        node = _run(layer, q, kv, mask=mask, return_weights=True)
        _assert_runs_close(node, expected)
        assert not node.weights[dead].any()
        assert not node.query_grad[dead].any()


class TestGradientParity:
    """Node vs reference input and parameter gradients: tile heights, short
    final batch tiles, padded items, and separate, partly tracked inputs."""

    # The kernel's tile budget in query rows: row tiles of a divisor-free
    # height (29 = 9·3 + 2), of more than half the rows, or room for them all.
    @pytest.mark.parametrize("rows", [3, 17, 64])
    @pytest.mark.parametrize("batched", [False, True])
    def test_input_and_parameter_gradients(self, monkeypatch, rows, batched):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 29, 32) if batched else (29, 32))
        mask = AttentionMask(_random_mask(rng, 29, 29, dead_row=3))
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        expected = _run(layer, x, mask=mask, mode="reference")
        _tile_rows(monkeypatch, rows, 2 if batched else 1, 29)
        node = _run(layer, x, mask=mask)
        _assert_runs_close(node, expected)
        dead = node.output[..., 3, :]  # row 3 attends to nothing
        assert np.array_equal(dead, np.broadcast_to(layer.out_proj.bias.data, dead.shape))

    @pytest.mark.parametrize("per_tile,sizes", [(2, [2, 2, 1]), (3, [3, 2])])
    def test_short_final_batch_tile(self, monkeypatch, per_tile, sizes):
        """Five items in batch tiles of two or three: the last tile is short,
        so the backward's per-tile dK/dV buffer is only partly used."""
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 23, 32))
        mask = np.stack([_random_mask(rng, 23, 23, dead_row=item) for item in range(5)])
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        expected = _run(layer, x, mask=mask, return_weights=True, mode="reference")
        monkeypatch.setattr(attention_module, "_SCORE_TILE_BYTES", per_tile * HEADS * 23 * 23 * 8)
        tiles, _ = attention_module._tiles(5, HEADS, 23, 23, 8)
        assert [len(range(5)[items]) for items, _ in tiles] == sizes
        _assert_runs_close(_run(layer, x, mask=mask, return_weights=True), expected)

    @pytest.mark.parametrize("tiling", ["one", "items", "rows", "row"])
    def test_padding_gets_zero_gradient(self, monkeypatch, tiling):
        """Ragged items padded to one length (as the tree stage buckets
        them): a padded position is neither a live query nor a key, so its
        output is exactly the output bias and its input gradient exactly zero."""
        rng = np.random.default_rng(13)
        valid = np.arange(19)[None, :] < np.array([19, 7, 12])[:, None]
        x = rng.normal(size=(3, 19, 32))
        mask = valid[:, :, None] & valid[:, None, :]
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        expected = _run(layer, x, mask=mask, mode="reference")
        _set_tiling(monkeypatch, tiling, 3, 19, 19)
        node = _run(layer, x, mask=mask)
        _assert_runs_close(node, expected)
        assert not node.query_grad[~valid].any()
        padded = node.output[~valid]
        assert np.array_equal(padded, np.broadcast_to(layer.out_proj.bias.data, padded.shape))

    @staticmethod
    def _run_inputs(layer, arrays, tracked, mask, mode):
        """Output, per-input gradients (None where untracked) and parameter
        gradients of ``layer(query, key, value)`` on separate leaves."""
        for param in layer.parameters():
            param.grad = None
        leaves = [Tensor(a.copy(), requires_grad=track) for a, track in zip(arrays, tracked)]
        with oracle_ops() if mode == "reference" else contextlib.nullcontext():
            out = layer(*leaves, mask=mask)
            out.backward(np.random.default_rng(99).normal(size=out.shape))
        params = {name: param.grad for name, param in layer.named_parameters()}
        return out.data, [leaf.grad for leaf in leaves], params

    @pytest.mark.parametrize("tracked", ["all", "query", "key", "value", "none"])
    def test_separate_and_partly_tracked_inputs(self, tracked):
        """Distinct query, key and value inputs, all, one or none of them
        tracked: every tracked input and every parameter gets the reference
        gradient, an untracked input none."""
        rng = np.random.default_rng(14)
        arrays = [rng.normal(size=(2, length, 32)) for length in (13, 31, 31)]
        mask = _random_mask(rng, 13, 31, dead_row=6)
        flags = [tracked in ("all", name) for name in ("query", "key", "value")]
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        expected = self._run_inputs(layer, arrays, flags, mask, "reference")
        actual = self._run_inputs(layer, arrays, flags, mask, "node")
        np.testing.assert_allclose(actual[0], expected[0], rtol=0, atol=REFERENCE_ATOL)
        for flag, grad, expected_grad in zip(flags, actual[1], expected[1]):
            if flag:
                np.testing.assert_allclose(grad, expected_grad, rtol=0, atol=REFERENCE_ATOL)
            else:
                assert grad is None
        for name, grad in expected[2].items():
            np.testing.assert_allclose(
                actual[2][name], grad, rtol=0, atol=REFERENCE_ATOL, err_msg=f"parameter {name}"
            )

    def test_gradients_accumulate_over_graphs(self):
        """Two graphs through the node add into the same leaves: exactly
        twice the gradient of one."""
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 21, 32))
        mask = _random_mask(rng, 21, 21, dead_row=0)
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(3))
        once = _run(layer, x, mask=mask)
        probe = np.random.default_rng(99).normal(size=x.shape)
        for param in layer.parameters():
            param.grad = None
        xt = Tensor(x.copy(), requires_grad=True)
        for _ in range(2):
            layer(xt, xt, xt, mask=mask).backward(probe)
        np.testing.assert_allclose(xt.grad, 2 * once.query_grad, rtol=0, atol=1e-12)
        for name, param in layer.named_parameters():
            np.testing.assert_allclose(
                param.grad, 2 * once.param_grads[name], rtol=0, atol=1e-12, err_msg=name
            )


class TestNodeBackward:
    @pytest.mark.parametrize("tiling", ["one", "row", "items"])
    @pytest.mark.parametrize("mask_kind", ["none", "2d", "3d"])
    def test_matches_finite_differences(self, monkeypatch, tiling, mask_kind):
        """The recompute backward against central differences of the forward
        (tiny cross-attention; masks with a dead row) — the manual
        reverse-mode vs numerical-Jacobian check."""
        rng = np.random.default_rng(11)
        heads, batch, q_len, k_len, embed = 2, 2, 5, 7, 8
        inputs = [rng.normal(size=(batch, length, embed)) for length in (q_len, k_len, k_len)]
        keep = rng.random((batch, q_len, k_len)) < 0.6
        keep[:, :, 0] = True
        keep[:, 3] = False
        mask = {"none": None, "2d": AttentionMask(keep[0]), "3d": AttentionMask(keep)}[mask_kind]
        probe = rng.normal(size=(batch, q_len, embed))
        if tiling == "row":
            monkeypatch.setattr(attention_module, "_SCORE_TILE_BYTES", batch * heads * k_len * 8)
        elif tiling == "items":
            monkeypatch.setattr(attention_module, "_SCORE_TILE_BYTES", heads * q_len * k_len * 8)

        def loss(arrays):
            out = attention_module._attention(*(Tensor(a) for a in arrays), mask, heads)
            return float((out.data * probe).sum())

        leaves = [Tensor(a.copy(), requires_grad=True) for a in inputs]
        attention_module._attention(*leaves, mask, heads).backward(probe)
        eps = 1e-6
        for index, leaf in enumerate(leaves):
            numeric = np.zeros_like(inputs[index])
            for position in np.ndindex(numeric.shape):
                shifted = [a.copy() for a in inputs]
                shifted[index][position] += eps
                upper = loss(shifted)
                shifted[index][position] -= 2 * eps
                numeric[position] = (upper - loss(shifted)) / (2 * eps)
            np.testing.assert_allclose(leaf.grad, numeric, rtol=0, atol=1e-8)
        if mask is not None:
            assert not leaves[0].grad[:, 3].any()  # the dead query row


def _assert_no_graph(output: Tensor) -> None:
    assert not output.requires_grad
    assert output._parents == () and output._backward is None


#: The layers of the extractor and the actor heads, built at embed 32.
SINGLE_PATH_LAYERS = {
    "Linear": lambda rng: Linear(32, 24, rng=rng),
    "LayerNorm": lambda rng: LayerNorm(32),
    "MLP": lambda rng: MLP(32, [48], 24, rng=rng),
    "FeedForward": lambda rng: FeedForward(32, 64, rng=rng),
    "MultiHeadAttention": lambda rng: MultiHeadAttention(32, HEADS, rng=rng),
    "TransformerEncoderLayer": lambda rng: TransformerEncoderLayer(32, HEADS, 64, rng=rng),
    "CrossAttentionLayer": lambda rng: CrossAttentionLayer(32, HEADS, 64, rng=rng),
}
#: Which layers take a key/value input, a mask and ``return_weights``.
_CROSS = ("MultiHeadAttention", "CrossAttentionLayer")
_MASKED = _CROSS + ("TransformerEncoderLayer",)


def _single_path_cases():
    for kind in SINGLE_PATH_LAYERS:
        for ndim in (2, 3):
            for masked in (False, True) if kind in _MASKED else (False,):
                for weights in (False, True) if kind in _CROSS else (False,):
                    tags = [kind, f"{ndim}d"] + ["masked"] * masked + ["weights"] * weights
                    yield pytest.param(kind, ndim, masked, weights, id="-".join(tags))


class TestSinglePath:
    """Each layer's forward is its only one: ``no_grad`` drops the graph,
    never an operation."""

    @pytest.mark.parametrize("kind,ndim,masked,return_weights", list(_single_path_cases()))
    def test_no_grad_is_the_tracking_forward(self, kind, ndim, masked, return_weights):
        rng = np.random.default_rng(21)
        layer = SINGLE_PATH_LAYERS[kind](np.random.default_rng(3))
        lead = (2,) if ndim == 3 else ()
        arrays = [rng.normal(size=lead + (13, 32))]
        if kind in _CROSS:
            arrays.append(rng.normal(size=lead + (17, 32)))
        if kind == "MultiHeadAttention":
            arrays.append(arrays[-1])
        kwargs = {}
        if masked:
            kwargs["mask"] = _random_mask(rng, 13, arrays[-1].shape[-2], dead_row=5)
        if return_weights:
            kwargs["return_weights"] = True

        def forward():
            return layer(*(Tensor(a, requires_grad=True) for a in arrays), **kwargs)

        tracked = forward()
        with no_grad():
            untracked = forward()
        if return_weights:
            (tracked, tracked_weights), (untracked, untracked_weights) = tracked, untracked
            assert np.array_equal(untracked_weights, tracked_weights)
        assert tracked.requires_grad and tracked._parents
        _assert_no_graph(untracked)
        assert untracked.shape == tracked.shape
        assert np.array_equal(untracked.data, tracked.data)


class TestAllocationGuard:
    SEQ = 900  # the large bench size: heads·S·S f64 scores are 26 MB

    def _peak(self, step):
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_square_temporary(self):
        """A no-grad encoder layer at the large bench size never holds the
        ``heads·S·S`` score tensor — deterministic, no timing."""
        layer = TransformerEncoderLayer(32, HEADS, 64, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(1, self.SEQ, 32))

        def forward():
            with no_grad():
                layer(Tensor(x))

        first = self._peak(forward)
        second = self._peak(forward)
        assert first < HEADS * self.SEQ ** 2 * 8 / 4
        assert second <= first

    def test_grad_step_has_no_square_temporary(self):
        """A grad-tracking forward + backward of the attention layer saves and
        recomputes tiles, never the ``heads·S·S`` probabilities (the retired
        dense node peaked at ~106 MiB here)."""
        layer = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(1, self.SEQ, 32))

        def step():
            for param in layer.parameters():
                param.grad = None
            xt = Tensor(x, requires_grad=True)
            layer(xt, xt, xt).sum().backward()

        first = self._peak(step)
        second = self._peak(step)
        assert first < HEADS * self.SEQ ** 2 * 8 / 4
        assert second <= first


def _no_grad_forward(layer, x):
    """The layer's one forward on ``x``, recording nothing: the oracle the
    incremental update is held to."""
    with no_grad():
        return layer(Tensor(x)).data


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
    @pytest.mark.parametrize("stream", [np.float64, np.float32])
    def test_update_matches_full_kernel(self, count, updated, stream):
        rng = np.random.default_rng(0)
        layer = TransformerEncoderLayer(32, HEADS, 64, rng=np.random.default_rng(3))
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
            actual, _no_grad_forward(layer, x_new), rtol=0,
            atol=1e-12 if stream == np.float64 else 1e-5,
        )

    def test_short_sequences_keep_no_state(self):
        """At S=50 no update can pay: the layer runs its plain forward and
        seeds nothing, so every later step takes the same path."""
        layer = TransformerEncoderLayer(32, HEADS, 64, rng=np.random.default_rng(3))
        x = np.random.default_rng(0).normal(size=(2, 50, 32))
        actual, state = layer.forward_array_incremental(x)
        assert state is None
        assert np.array_equal(actual, _no_grad_forward(layer, x))

    def test_chain_of_updates_does_not_drift(self):
        rng = np.random.default_rng(1)
        layer = TransformerEncoderLayer(32, HEADS, 64, rng=np.random.default_rng(3))
        x = rng.normal(size=(1, self.SEQ, 32))
        _, state = layer.forward_array_incremental(x)
        for _ in range(50):
            x, changed = _change_rows(rng, x, [int(rng.integers(1, 12))])
            actual, state = layer.forward_array_incremental(x, [state], changed)
            assert state.recomputed < self.SEQ  # never re-seeded
        np.testing.assert_allclose(actual, _no_grad_forward(layer, x), rtol=0, atol=1e-10)

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
            np.testing.assert_allclose(actual, _no_grad_forward(layer, x), rtol=0, atol=1e-12)
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
        np.testing.assert_allclose(actual, _no_grad_forward(layer, x_new), rtol=0, atol=1e-10)

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


class TestEncoderLayerAndExtractor:
    def test_encoder_layer_matches_reference(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(45, 32))
        layer = TransformerEncoderLayer(32, HEADS, 64, rng=np.random.default_rng(8))
        probe = rng.normal(size=x.shape)
        runs = {}
        for mode, context in (("node", contextlib.nullcontext), ("reference", oracle_ops)):
            for param in layer.parameters():
                param.grad = None
            xt = Tensor(x.copy(), requires_grad=True)
            with context():
                out = layer(xt)
                out.backward(probe)
            runs[mode] = Run(
                out.data, None, xt.grad, None,
                {name: param.grad for name, param in layer.named_parameters()},
            )
        _assert_runs_close(runs["node"], runs["reference"])
        with no_grad():
            assert np.array_equal(layer(Tensor(x)).data, runs["node"].output)

    @staticmethod
    def _observation(rng, num_pms=6, num_vms=40):
        source = rng.integers(0, num_pms, size=num_vms)
        return Observation(
            pm_features=rng.random((num_pms, 8)),
            vm_features=rng.random((num_vms, 14)),
            vm_source_pm=source,
            vm_mask=np.ones(num_vms, dtype=bool),
            migrations_left=10,
        )

    @pytest.mark.parametrize("grad", [False, True])
    def test_extractor_matches_reference(self, grad):
        """The whole extractor (grouped tree stage, every attention through
        the one kernel) vs the oracle (dense tree mask, chained ops)."""
        observation = self._observation(np.random.default_rng(9))
        extractor = SparseAttentionExtractor(ModelConfig(), rng=np.random.default_rng(10))
        with oracle_ops():
            expected = extractor(build_feature_batch(observation))
        with contextlib.nullcontext() if grad else no_grad():
            actual = extractor(build_feature_batch(observation))
        for name in ("vm_embeddings", "pm_embeddings"):
            np.testing.assert_allclose(
                getattr(actual, name).data, getattr(expected, name).data,
                rtol=0, atol=REFERENCE_ATOL, err_msg=name,
            )
        np.testing.assert_allclose(
            actual.vm_pm_scores, expected.vm_pm_scores, rtol=0, atol=REFERENCE_ATOL
        )

    def test_extractor_gradients_match_reference(self):
        """Every extractor parameter's gradient, with each attention stage's
        backward through the node, vs the oracle's chained ops."""
        observation = self._observation(np.random.default_rng(9))
        extractor = SparseAttentionExtractor(ModelConfig(), rng=np.random.default_rng(10))
        grads = {}
        for mode, context in (("node", contextlib.nullcontext), ("reference", oracle_ops)):
            for param in extractor.parameters():
                param.grad = None
            probe_rng = np.random.default_rng(11)
            with context():
                out = extractor(build_feature_batch(observation))
                vm, pm = out.vm_embeddings, out.pm_embeddings
                loss = (vm * Tensor(probe_rng.normal(size=vm.shape))).sum()
                (loss + (pm * Tensor(probe_rng.normal(size=pm.shape))).sum()).backward()
            grads[mode] = {name: param.grad for name, param in extractor.named_parameters()}
        assert grads["node"].keys() == grads["reference"].keys()
        for name, grad in grads["reference"].items():
            np.testing.assert_allclose(
                grads["node"][name], grad, rtol=0, atol=REFERENCE_ATOL, err_msg=name
            )

    def test_cross_attention_layer_matches_reference(self):
        """The pre-norm VM→PM block: output and every gradient through the
        node vs the reference, a dead query row included."""
        rng = np.random.default_rng(18)
        query = rng.normal(size=(2, 37, 32))
        key_value = rng.normal(size=(2, 9, 32))
        mask = rng.random((37, 9)) < 0.5
        mask[:, 4] = True
        mask[12] = False
        layer = CrossAttentionLayer(32, HEADS, 64, rng=np.random.default_rng(8))
        probe = rng.normal(size=query.shape)
        runs = {}
        for mode, context in (("node", contextlib.nullcontext), ("reference", oracle_ops)):
            for param in layer.parameters():
                param.grad = None
            qt = Tensor(query.copy(), requires_grad=True)
            kvt = Tensor(key_value.copy(), requires_grad=True)
            with context():
                out, weights = layer(qt, kvt, mask=mask, return_weights=True)
                out.backward(probe)
            runs[mode] = Run(
                out.data, weights, qt.grad, kvt.grad,
                {name: param.grad for name, param in layer.named_parameters()},
            )
        _assert_runs_close(runs["node"], runs["reference"])

    @pytest.mark.parametrize("stacked", [False, True])
    def test_extractor_no_grad_matches_tracking(self, stacked):
        """Only the final block computes VM→PM weights, with or without
        grad, and the extractor has one forward: the no-grad scores and
        embeddings are the tracking ones, bit for bit, with no graph behind
        them — for one observation and for a stacked batch."""
        rng = np.random.default_rng(9)
        if stacked:
            observations = [self._observation(rng) for _ in range(3)]
            build = lambda: stack_feature_batches(  # noqa: E731
                [build_feature_batch(obs) for obs in observations]
            )
            lead = (3,)
        else:
            observation = self._observation(rng)
            build = lambda: build_feature_batch(observation)  # noqa: E731
            lead = (1,)
        extractor = SparseAttentionExtractor(ModelConfig(), rng=np.random.default_rng(10))
        tracked = extractor(build())
        with no_grad():
            untracked = extractor(build())
        assert untracked.vm_pm_scores.shape == lead + (40, 6)
        assert np.array_equal(untracked.vm_pm_scores, tracked.vm_pm_scores)
        for name in ("vm_embeddings", "pm_embeddings"):
            assert getattr(tracked, name)._parents
            _assert_no_graph(getattr(untracked, name))
            assert np.array_equal(getattr(untracked, name).data, getattr(tracked, name).data)

    def test_no_implementation_options(self):
        """Attention is one kernel: nothing selects another implementation,
        chunk width or precision for it."""
        for option in (
            {"attention_impl": "chunked"}, {"attention_chunk_size": 64},
            {"float32_vm_attention": True},
        ):
            with pytest.raises(TypeError):
                ModelConfig(**option)
        for option in ({"chunk_size": 8}, {"compute_dtype": np.float32}):
            with pytest.raises(TypeError):
                MultiHeadAttention(32, HEADS, **option)
            with pytest.raises(TypeError):
                TransformerEncoderLayer(32, HEADS, **option)
        with pytest.raises(ValueError):
            MultiHeadAttention(30, HEADS)
