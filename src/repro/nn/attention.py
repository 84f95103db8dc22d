"""Attention layers used by the VMR2L feature extractor.

The paper's feature extractor (§3.3) is a modified transformer: each block
runs (1) sparse local attention within each PM tree, (2) self-attention among
PMs and among VMs, and (3) VM→PM cross-attention.  The primitives here are
mask-aware multi-head attention and a standard pre-norm transformer block; the
VMR-specific wiring (tree masks, three-stage blocks) lives in
:mod:`repro.core.attention`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from .layers import Activation, LayerNorm, Linear, Sequential
from .module import Module
from .tensor import Tensor, grad_enabled


class AttentionMask:
    """A boolean keep-mask plus everything attention derives from it.

    Wrapping a mask precomputes the additive score bias (0 kept / ``-1e9``
    masked) and the fully-masked-row indicator once, so a mask reused across
    several attention layers (e.g. the tree mask through every extractor
    block) pays the conversion a single time; inside one layer the bias
    broadcasts over the head axis instead of being expanded per head.
    """

    __slots__ = ("mask", "bias", "dead_rows")

    def __init__(self, mask: np.ndarray) -> None:
        self.mask = np.asarray(mask, dtype=bool)
        self.bias = F.mask_to_bias(self.mask)
        allowed = self.mask.any(axis=-1)
        #: float indicator of rows with at least one allowed key, or None when
        #: every row has one (the common case — lets consumers skip the fixup).
        self.dead_rows = None if allowed.all() else allowed.astype(float)

    @property
    def shape(self):
        return self.mask.shape


def _score_mask_parts(
    mask: Optional[AttentionMask], dtype
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Additive bias and dead-row indicator shaped for the score tensor.

    Returns ``(bias, allowed)`` where ``bias`` broadcasts against
    ``(batch, heads, q_len, k_len)`` scores and ``allowed`` (or ``None``)
    against ``(batch, heads, q_len, 1)``.  A ``(q_len, k_len)`` mask is shared
    by every batch row, a ``(batch, q_len, k_len)`` mask applies per row;
    :func:`_tile` cuts either to one score tile.
    """
    if mask is None:
        return None, None
    bias = mask.bias
    if bias.dtype != dtype:
        # float32 inference: keep the tile temporaries in the scores' dtype
        # instead of promoting back to float64.
        bias = bias.astype(dtype)
    if bias.ndim == 3:
        bias = bias[:, None, :, :]
    allowed = mask.dead_rows
    if allowed is not None:
        allowed = allowed[:, None] if allowed.ndim == 1 else allowed[:, None, :, None]
    return bias, allowed


#: Byte budget of one ``(items, heads, rows, k_len)`` score tile of
#: :func:`_attention_array` and its backward: cache-resident across its
#: passes, dispatch-amortising.
_SCORE_TILE_BYTES = 1 << 20


def _tiles(
    batch: int, heads: int, q_len: int, k_len: int, itemsize: int
) -> Tuple[List[Tuple[slice, slice]], int]:
    """The ``(items, rows)`` slices of the score tiles, and a tile's size.

    The forward kernel and the backward walk the same tiles.  While one batch
    item's ``(heads, q_len, k_len)`` block fits :data:`_SCORE_TILE_BYTES`,
    tiles are whole items (a 256×50 training batch is 20 tiles of 13 items,
    not 25 two-row slivers); otherwise they are as many query rows of every
    item as fit.  One tile when everything fits.
    """
    budget = _SCORE_TILE_BYTES // itemsize  # score elements per tile
    per_item = heads * q_len * k_len
    if per_item <= budget:
        step = budget // max(1, per_item)
        tiles = [(slice(start, start + step), slice(None)) for start in range(0, batch, step)]
        return tiles, min(step, batch) * per_item
    step = max(1, budget // (batch * heads * k_len))
    tiles = [(slice(None), slice(start, start + step)) for start in range(0, q_len, step)]
    return tiles, batch * heads * min(step, q_len) * k_len


def _tile(part: np.ndarray, items: slice, rows: slice) -> np.ndarray:
    """The part of a :func:`_score_mask_parts` array one score tile covers."""
    return part[rows] if part.ndim == 2 else part[items, :, rows]


def _tile_scores(
    buffer: np.ndarray, q: np.ndarray, kt: np.ndarray, bias: Optional[np.ndarray],
    items: slice, rows: slice,
) -> np.ndarray:
    """``q·kᵀ`` (+ bias) of one tile, written into the reused ``buffer``."""
    q_tile = q[items, :, rows]
    shape = q_tile.shape[:3] + (kt.shape[-1],)
    scores = np.matmul(q_tile, kt[items], out=buffer[: math.prod(shape)].reshape(shape))
    if bias is not None:
        scores += _tile(bias, items, rows)
    return scores


def _head_view(x: np.ndarray, heads: int) -> np.ndarray:
    """Merged ``(batch, len, embed)`` viewed as ``(batch, heads, len, head_dim)``."""
    batch, length, embed = x.shape
    return x.reshape(batch, length, heads, embed // heads).transpose(0, 2, 1, 3)


def _contiguous_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """Merged ``(batch, len, embed)`` copied into the kernel's contiguous
    ``(batch, heads, len, head_dim)`` layout (numpy's strided batched GEMM is
    slow)."""
    return np.ascontiguousarray(_head_view(x, heads))


def _attention_array(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: Optional[AttentionMask],
    return_weights: bool = False,
    row_stats: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """THE score/softmax/context kernel, over tiles of queries.

    ``q`` (pre-scaled), ``k``, ``v`` are ``(batch, heads, len, head_dim)``.
    Each tile (:func:`_tiles`) runs QKᵀ → +bias → exact row max → subtract →
    exp in one reused buffer, then the row sum and P·V on the unnormalised
    exponentials, and the ``head_dim``-wide context is divided by the sum
    instead of the ``k_len``-wide probabilities (same function, one rounding
    reordered).  Returns the ``(batch, q_len, heads * head_dim)`` context and,
    with ``return_weights``, the head-averaged probabilities; fully-masked
    rows are exactly zero.  ``row_stats`` — two ``(batch, heads, q_len)``
    arrays — receives each row's score maximum and its sum of exponentials:
    what :func:`_update_attention` needs to correct a row later without
    rescoring it, and what the backward of :func:`_attention` recomputes the
    exponentials from.
    """
    batch, heads, q_len, head_dim = q.shape
    k_len = k.shape[-2]
    bias, allowed = _score_mask_parts(mask, q.dtype)
    kt = np.swapaxes(k, -1, -2)
    tiles, tile_size = _tiles(batch, heads, q_len, k_len, q.itemsize)
    buffer = np.empty(tile_size, dtype=q.dtype)
    merged = np.empty((batch, q_len, heads * head_dim), dtype=q.dtype)
    context = _head_view(merged, heads)  # per-head view the tiles fill
    weights = np.empty((batch, q_len, k_len), dtype=q.dtype) if return_weights else None
    for items, rows in tiles:
        scores = _tile_scores(buffer, q, kt, bias, items, rows)
        row_max = scores.max(axis=-1, keepdims=True)
        scores -= row_max
        np.exp(scores, out=scores)
        total = scores.sum(axis=-1, keepdims=True)
        np.divide(np.matmul(scores, v[items]), total, out=context[items, :, rows])
        if row_stats is not None:
            row_stats[0][items, :, rows] = row_max[..., 0]
            row_stats[1][items, :, rows] = total[..., 0]
        if return_weights:
            scores /= total
            if allowed is not None:
                scores *= _tile(allowed, items, rows)
            np.mean(scores, axis=1, out=weights[items, rows])
    if allowed is not None:
        context *= allowed
    return merged, weights


def _with_column(x: np.ndarray, column) -> np.ndarray:
    """``x`` with ``column`` appended along the last axis (a fresh array)."""
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,), dtype=x.dtype)
    out[..., :-1] = x
    out[..., -1] = column
    return out


def _attention(
    q: Tensor, k: Tensor, v: Tensor, mask: Optional[AttentionMask], heads: int,
    return_weights: bool = False,
):
    """:func:`_attention_array` as ONE graph node with a recompute backward.

    ``q`` (pre-scaled), ``k``, ``v`` are the merged ``(batch, len, embed)``
    projections; returns the merged context Tensor, plus the head-averaged
    probabilities (outside the graph) with ``return_weights``.  The node
    keeps q/k/v in head layout, the context and each row's score maximum
    ``m`` and sum of exponentials ``l`` — O(S·dim), never ``S×S``.  The
    backward walks the forward's tiles, recomputing each tile's exponentials
    ``e = exp(s − m)`` from the saved maximum, and folds ``1/l`` into the
    ``head_dim``-wide incoming gradient ``g`` and row-dot instead of
    normalising ``k_len``-wide probabilities:

        dV = eᵀ·(g/l),   dS = e ∘ ((g/l)·Vᵀ − (g·ctx)/l),   dQ = dS·K,   dK = dSᵀ·Q

    (``g·ctx = Σⱼ pᵢⱼ·dpᵢⱼ`` is the FlashAttention row-dot identity).  Both
    row subtractions ride in the GEMMs as one extra column —
    ``[q, −m]·[k, 1]ᵀ = s − m`` and ``[g, −g·ctx]·[v, 1]ᵀ`` — and dQ, dK, dV
    accumulate per tile in merged layout.  Fully-masked rows output exactly
    zero and pass exactly zero gradient.  When nothing is recorded (no
    input requires grad, or ``no_grad``) the kernel runs on plain head-layout
    copies and neither the extra columns nor the row statistics are kept.
    """
    if not grad_enabled() or not (q.requires_grad or k.requires_grad or v.requires_grad):
        context, weights = _attention_array(
            *(_contiguous_heads(tensor.data, heads) for tensor in (q, k, v)), mask, return_weights
        )
        return (Tensor(context), weights) if return_weights else Tensor(context)
    # The head-layout copies carry that extra column from the start (ones for
    # k and v, −m for q once the kernel has found it); the kernel reads the
    # first head_dim columns.
    q_rows, k_rows, v_rows = (
        _with_column(_head_view(tensor.data, heads), 1.0) for tensor in (q, k, v)
    )
    stats = tuple(np.empty(q_rows.shape[:3], dtype=q_rows.dtype) for _ in range(2))
    context, weights = _attention_array(
        q_rows[..., :-1], k_rows[..., :-1], v_rows[..., :-1], mask, return_weights, row_stats=stats
    )
    q_rows[..., -1] = -stats[0]

    def backward(grad: np.ndarray) -> None:
        row_max, row_sum = stats
        bias, allowed = _score_mask_parts(mask, grad.dtype)
        grad_h = _head_view(grad, heads)
        row_dot = np.einsum("bhid,bhid->bhi", grad_h, _head_view(context, heads))
        grad_rows = _with_column(grad_h, -row_dot)
        inverse = 1.0 / row_sum[..., None]
        grad_rows *= inverse if allowed is None else inverse * allowed
        kt, vt = np.swapaxes(k_rows, -1, -2), np.swapaxes(v_rows, -1, -2)
        # A tile's dK / dV product lands in ``partial`` and is added
        # contiguously: adding it into a head view of merged memory costs ~4×
        # the product itself.
        dq, dk, dv = np.empty_like(q.data), np.zeros_like(k.data), np.zeros_like(v.data)
        dq_h = _head_view(dq, heads)
        tiles, tile_size = _tiles(*q_rows.shape[:3], k_rows.shape[2], grad.itemsize)
        exps_buffer, dscores_buffer = np.empty((2, tile_size), dtype=grad.dtype)
        partial = np.empty_like(dk[: tiles[0][0].stop])
        partial_h = _head_view(partial, heads)
        for items, rows in tiles:
            exps = _tile_scores(exps_buffer, q_rows, kt, bias, items, rows)
            np.exp(exps, out=exps)
            tile_grad = grad_rows[items, :, rows]
            count = exps.shape[0]
            np.matmul(np.swapaxes(exps, -1, -2), tile_grad[..., :-1], out=partial_h[:count])
            dv[items] += partial[:count]
            dscores = np.matmul(
                tile_grad, vt[items], out=dscores_buffer[: exps.size].reshape(exps.shape)
            )
            dscores *= exps
            np.matmul(dscores, k_rows[items, ..., :-1], out=dq_h[items, :, rows])
            np.matmul(
                np.swapaxes(dscores, -1, -2), q_rows[items, :, rows, :-1], out=partial_h[:count]
            )
            dk[items] += partial[:count]
        for tensor, part in ((q, dq), (k, dk), (v, dv)):
            if tensor.requires_grad:
                tensor._accumulate(part)

    out = q._make(context, (q, k, v), backward)
    return (out, weights) if return_weights else out


#: When :func:`_update_attention` pays, in scores (one query against one key).
#: The full kernel computes ``S·S`` of them per head; an update costs about
#: ``_UPDATE_ROW_SCORES · S`` per changed row (old and new keys against every
#: query, the changed queries against every key, the gathers and scatters
#: around them) plus a fixed ``_UPDATE_FIXED_SCORES`` of index building.
#: Measured break-even of one encoder-layer forward (batch of one, 1 BLAS
#: thread): never at S ≤ 100, 5 changed rows at S=150, 25 at S=200, 58 at
#: S=280, 220 at S=900 — ``4·C·S + 20 000 = S²``; the constants sit a little
#: on the full kernel's side of that.  A migration changes ≈ 14 rows of 50
#: (full kernel), 5–30 of 280 and 13–23 of 900 (update); a cluster-wide
#: renormalisation changes > 85 % of the rows (full kernel).
_UPDATE_ROW_SCORES = 5
_UPDATE_FIXED_SCORES = 25_000

#: :func:`_update_attention` rescores a clean row against every key when the
#: changed keys held more than this share of its stored row sum (subtracting
#: them would cancel most of it) ...
_MAX_REMOVED_SHARE = 0.5
#: ... or when a changed key's new score exceeds the row's stored maximum by
#: more than this (the stored maximum stays the exponent's reference;
#: exp(16) ≈ 9e6 keeps every sum far from float32 overflow).
_MAX_SCORE_RISE = 16.0


class AttentionState:
    """What an unmasked self-attention forward keeps for the next decision step.

    Head-layout ``q`` (pre-scaled), ``k``, ``v`` — ``(batch, heads, S,
    head_dim)`` — the normalised ``(batch, S, embed)`` context, and each row's
    score maximum and sum of exponentials, ``(batch, heads, S)``: O(S·dim),
    never ``S×S``.  ``recomputed`` is how many query rows the call that
    produced this state scored against every key (``S`` for the full kernel).
    """

    _ARRAYS = ("q", "k", "v", "context", "row_max", "row_sum")
    __slots__ = _ARRAYS + ("recomputed",)

    def __init__(self, q, k, v, context, row_max, row_sum, recomputed: int) -> None:
        self.q, self.k, self.v = q, k, v
        self.context, self.row_max, self.row_sum = context, row_max, row_sum
        self.recomputed = recomputed

    def row(self, index: int) -> "AttentionState":
        """Batch item ``index`` as a batch of one (views, not copies)."""
        parts = (getattr(self, name)[index : index + 1] for name in self._ARRAYS)
        return AttentionState(*parts, recomputed=self.recomputed)

    @classmethod
    def stack(cls, states: Sequence["AttentionState"]) -> "AttentionState":
        """Same-size states as one batch, in fresh arrays (an update overwrites them)."""
        parts = (
            np.concatenate([getattr(state, name) for state in states])
            for name in cls._ARRAYS
        )
        return cls(*parts, recomputed=0)


def _update_rows(
    previous: Optional[Sequence[AttentionState]], changed: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """``(batch, C)`` indices of the rows an update must treat as changed, or
    ``None`` when the full kernel should run (nothing to update from, or too
    many rows changed for the update to pay).

    ``changed`` is a ``(batch, S)`` boolean.  Batch items with fewer changed
    rows than the widest are padded with clean rows: treating a clean row as
    changed is exact (its old contribution is removed, the same one added), so
    a ragged batch needs no weights and no per-item loop.  At least one row is
    listed, which keeps every reduction below non-empty.
    """
    if previous is None or changed is None:
        return None
    seq = changed.shape[1]
    width = max(1, int(changed.sum(axis=1).max()))
    if width * _UPDATE_ROW_SCORES * seq + _UPDATE_FIXED_SCORES > seq * seq:
        return None
    return np.argsort(~changed, axis=1, kind="stable")[:, :width]


def _update_attention(
    state: AttentionState, rows: np.ndarray, q_new: np.ndarray, k_new: np.ndarray,
    v_new: np.ndarray,
) -> None:
    """Bring ``state`` to the input whose ``rows`` changed, in place, without
    rescoring clean rows against clean keys.

    ``rows`` is ``(batch, C)`` (distinct per batch item), ``q_new`` / ``k_new``
    / ``v_new`` the changed rows' projections ``(batch, heads, C, head_dim)``.
    Clean rows are corrected for the changed keys alone
    (:func:`_swap_changed_keys`); the rows it reports unsafe and the changed
    rows themselves (their queries moved) go through :func:`_attention_array`
    against every key, which also refreshes their stored maximum.
    """
    redo = _swap_changed_keys(state, rows, k_new, v_new)
    at = rows[:, None, :, None]
    for stored, new in ((state.q, q_new), (state.k, k_new), (state.v, v_new)):
        np.put_along_axis(stored, at, new, axis=2)
    np.put_along_axis(redo, rows, True, axis=1)
    count = int(redo.sum(axis=1).max())
    # Flagged rows first; items with fewer are padded with clean rows, whose
    # full rescoring is merely redundant.
    redo_rows = np.argsort(~redo, axis=1, kind="stable")[:, :count]
    batch, heads = state.q.shape[:2]
    stats = tuple(np.empty((batch, heads, count), dtype=state.q.dtype) for _ in range(2))
    fresh, _ = _attention_array(
        np.take_along_axis(state.q, redo_rows[:, None, :, None], axis=2), state.k, state.v,
        None, row_stats=stats,
    )
    np.put_along_axis(state.context, redo_rows[:, :, None], fresh, axis=1)
    np.put_along_axis(state.row_max, redo_rows[:, None, :], stats[0], axis=2)
    np.put_along_axis(state.row_sum, redo_rows[:, None, :], stats[1], axis=2)
    state.recomputed = count


def _swap_changed_keys(
    state: AttentionState, rows: np.ndarray, k_new: np.ndarray, v_new: np.ndarray
) -> np.ndarray:
    """Correct every row's context and row sum for the keys at ``rows``
    changing from the stored ``k`` / ``v`` to ``k_new`` / ``v_new``; returns
    the ``(batch, S)`` boolean of rows the correction is not safe for.

    A query's scores against clean keys did not move, so its numerator
    ``context · row_sum`` and its ``row_sum`` are corrected by subtracting the
    changed keys' old exponentials (and ``exp · v``) and adding their new
    ones, all against the row's *stored* maximum: O(S·C) instead of O(S²).
    Subtraction is safe while the removed mass is a modest share of the sum
    (:data:`_MAX_REMOVED_SHARE`) and addition while the new scores do not
    tower over the stored maximum (:data:`_MAX_SCORE_RISE`).
    """
    batch, heads, seq, head_dim = state.q.shape
    width = rows.shape[1]
    at = rows[:, None, :, None]
    keys = np.concatenate([np.take_along_axis(state.k, at, axis=2), k_new], axis=2)
    values = np.concatenate([np.take_along_axis(state.v, at, axis=2), v_new], axis=2)
    # (batch, heads, S, 2C): every stored query against the changed keys' old
    # versions, then their new ones.
    weights = np.matmul(state.q, np.swapaxes(keys, -1, -2))
    weights -= state.row_max[..., None]
    rise = weights[..., width:].max(axis=-1)
    # Only rows flagged below reach the clip; it keeps their exp finite.
    np.minimum(weights, 2.0 * _MAX_SCORE_RISE, out=weights)
    np.exp(weights, out=weights)
    removed = weights[..., :width].sum(axis=-1)
    unsafe = (removed > _MAX_REMOVED_SHARE * state.row_sum) | (rise > _MAX_SCORE_RISE)
    row_sum = state.row_sum - removed + weights[..., width:].sum(axis=-1)
    row_sum[unsafe] = 1.0  # rescored by the caller; keeps the division finite
    np.negative(weights[..., :width], out=weights[..., :width])
    context = state.context.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
    context *= state.row_sum[..., None]
    context += np.matmul(weights, values)
    context /= row_sum[..., None]
    state.row_sum = row_sum
    return unsafe.any(axis=1)


def _first_row(result):
    """Un-lift a batch-of-one attention result: ``output`` or ``(output, weights)``."""
    if isinstance(result, tuple):
        return tuple(part[0] for part in result)
    return result[0]


class MultiHeadAttention(Module):
    """Multi-head scaled dot-product attention with an optional boolean mask.

    The mask has shape ``(query_len, key_len)`` or ``(batch, query_len,
    key_len)`` with ``True`` meaning the query is allowed to attend to the key.
    It may be a raw boolean array or a pre-built :class:`AttentionMask`; pass
    the latter when the same mask feeds several layers so the additive bias is
    derived once.  Queries whose mask row is entirely ``False`` receive a zero
    output vector, which matches the semantics needed for isolated nodes
    (e.g. a PM hosting no VMs during tree-local attention).
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError(f"embed_dim={embed_dim} must be divisible by num_heads={num_heads}")
        rng = rng if rng is not None else np.random.default_rng()
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        gain = 1.0
        self.q_proj = Linear(embed_dim, embed_dim, rng=rng, gain=gain)
        self.k_proj = Linear(embed_dim, embed_dim, rng=rng, gain=gain)
        self.v_proj = Linear(embed_dim, embed_dim, rng=rng, gain=gain)
        self.out_proj = Linear(embed_dim, embed_dim, rng=rng, gain=gain)

    def forward(
        self,
        query: Tensor,
        key: Tensor,
        value: Tensor,
        mask: Optional[np.ndarray] = None,
        return_weights: bool = False,
    ):
        """Attend ``query`` over ``key``/``value``.

        Inputs are ``(batch, seq_len, embed_dim)`` tensors (batch items never
        attend across each other); 2-D ``(seq_len, embed_dim)`` inputs are
        lifted to a batch of one here and the result un-lifted, so everything
        below sees only ``(batch, heads, q_len, k_len)`` scores.  A 2-D mask
        is shared by every batch item; a 3-D ``(batch, query_len, key_len)``
        mask is applied per item.  The forward is the three projections, the
        scale folded into q (an O(seq·dim) multiply), the :func:`_attention`
        node and the output projection; under ``no_grad`` the same ops run
        without recording.
        """
        if query.ndim == 2:
            return _first_row(
                self.forward(
                    query.unsqueeze(0), key.unsqueeze(0), value.unsqueeze(0), mask, return_weights
                )
            )
        if query.ndim != 3:
            raise ValueError(f"expected 2-D or 3-D query, got shape {query.shape}")
        result = self.attend(
            self._scaled_queries(query), self.k_proj(key), self.v_proj(value), mask,
            return_weights,
        )
        if return_weights:
            return self.out_proj(result[0]), result[1]
        return self.out_proj(result)

    def attend(
        self, q: Tensor, k: Tensor, v: Tensor, mask=None, return_weights: bool = False
    ):
        """The score core alone: the :func:`_attention` node over merged
        ``(batch, len, embed)`` projections (``q`` pre-scaled) — everything
        :meth:`forward` does between the projections and ``out_proj``.  A
        caller that projects rows itself (the grouped tree stage) attends
        through here."""
        mask = self._checked_mask(mask, q.shape[0], q.shape[1], k.shape[1])
        return _attention(q, k, v, mask, self.num_heads, return_weights)

    def self_attention_array(
        self,
        x: np.ndarray,
        previous: Optional[AttentionState] = None,
        rows: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, AttentionState]:
        """Unmasked no-grad self-attention that keeps its softmax state.

        Without ``previous``, ``x`` is the whole ``(batch, S, embed)`` input:
        the full kernel runs and seeds the returned :class:`AttentionState`.
        With it, ``x`` holds only the input rows that changed since the call
        that produced ``previous`` — ``(batch, C, embed)`` at indices ``rows``
        ``(batch, C)`` — and ``previous`` is **overwritten** with the new
        state and returned (:func:`_update_attention`).  Either way the output
        covers all ``S`` rows and equals the no-grad :meth:`forward` on the
        new input to ~1e-14.
        """
        x = Tensor(x)
        q, k, v = (
            _contiguous_heads(projected.data, self.num_heads)
            for projected in (self._scaled_queries(x), self.k_proj(x), self.v_proj(x))
        )
        if previous is None:
            stats = tuple(np.empty(q.shape[:3], dtype=q.dtype) for _ in range(2))
            context, _ = _attention_array(q, k, v, None, row_stats=stats)
            state = AttentionState(q, k, v, context, *stats, recomputed=q.shape[2])
        else:
            state = previous
            _update_attention(state, rows, q, k, v)
        return self.out_proj(Tensor(state.context)).data, state

    def _scaled_queries(self, query: Tensor) -> Tensor:
        """The q projection times ``1/sqrt(head_dim)`` (a float32 stream
        multiplies by a float32 scale)."""
        return self.q_proj(query) * (1.0 / np.sqrt(self.head_dim))

    @staticmethod
    def _checked_mask(mask, batch: int, q_len: int, k_len: int) -> Optional[AttentionMask]:
        """Wrap a raw boolean mask and check it against the score shape."""
        if mask is None:
            return None
        if not isinstance(mask, AttentionMask):
            mask = AttentionMask(mask)
        if mask.shape not in ((q_len, k_len), (batch, q_len, k_len)):
            raise ValueError(
                f"mask shape {mask.shape} does not match ({batch}, {q_len}, {k_len})"
            )
        return mask


class FeedForward(Module):
    """Position-wise feed-forward network (two dense layers, §3.3)."""

    def __init__(
        self,
        embed_dim: int,
        hidden_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.network = Sequential(
            Linear(embed_dim, hidden_dim, rng=rng),
            Activation(),
            Linear(hidden_dim, embed_dim, rng=rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.network(x)


class TransformerEncoderLayer(Module):
    """Standard pre-norm transformer encoder layer with optional mask."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        hidden_dim: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        hidden_dim = hidden_dim if hidden_dim is not None else 4 * embed_dim
        self.attention = MultiHeadAttention(embed_dim, num_heads, rng=rng)
        self.feed_forward = FeedForward(embed_dim, hidden_dim, rng=rng)
        self.norm1 = LayerNorm(embed_dim)
        self.norm2 = LayerNorm(embed_dim)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        normed = self.norm1(x)
        return self._residual_feed_forward(x, self.attention(normed, normed, normed, mask=mask))

    def forward_array_incremental(
        self,
        x: np.ndarray,
        previous: Optional[Sequence[AttentionState]] = None,
        changed: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[AttentionState]]:
        """Unmasked no-grad :meth:`forward` on arrays that hands back, and can
        start from, the attention's :class:`AttentionState`.

        ``previous`` holds one state per batch item (``state.row(i)`` of what
        an earlier call returned — callers keep them per episode) and
        ``changed`` is the ``(batch, S)`` boolean of rows where ``x`` differs
        from that call's input (every other row must be bitwise equal).  When
        few enough rows changed (:func:`_update_rows`) only those are
        normalised and projected, and the update works on a stacked copy of
        ``previous``; otherwise the full kernel runs.  The returned state is
        new either way, and the output projection, residual, norm and
        feed-forward run on all rows.  A sequence too short for any update to
        pay (``S² ≤ _UPDATE_FIXED_SCORES``, S ≤ 158) keeps no state at all:
        plain :meth:`forward`, state ``None``.
        """
        if x.shape[1] ** 2 <= _UPDATE_FIXED_SCORES:
            return self(Tensor(x)).data, None
        rows = _update_rows(previous, changed)
        if rows is None:
            attended, state = self.attention.self_attention_array(self.norm1(Tensor(x)).data)
        else:
            changed_x = Tensor(np.take_along_axis(x, rows[:, :, None], axis=1))
            attended, state = self.attention.self_attention_array(
                self.norm1(changed_x).data, AttentionState.stack(previous), rows
            )
        return self._residual_feed_forward(Tensor(x), Tensor(attended)).data, state

    def _residual_feed_forward(self, x: Tensor, attended: Tensor) -> Tensor:
        x = x + attended
        return x + self.feed_forward(self.norm2(x))


class CrossAttentionLayer(Module):
    """Pre-norm cross-attention block: queries attend to a separate key set."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        hidden_dim: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        hidden_dim = hidden_dim if hidden_dim is not None else 4 * embed_dim
        self.attention = MultiHeadAttention(embed_dim, num_heads, rng=rng)
        self.feed_forward = FeedForward(embed_dim, hidden_dim, rng=rng)
        self.norm_query = LayerNorm(embed_dim)
        self.norm_key = LayerNorm(embed_dim)
        self.norm_out = LayerNorm(embed_dim)

    def forward(
        self,
        query: Tensor,
        key_value: Tensor,
        mask: Optional[np.ndarray] = None,
        return_weights: bool = False,
    ):
        q = self.norm_query(query)
        kv = self.norm_key(key_value)
        attended = self.attention(q, kv, kv, mask=mask, return_weights=return_weights)
        attended, weights = attended if return_weights else (attended, None)
        out = query + attended
        out = out + self.feed_forward(self.norm_out(out))
        return (out, weights) if return_weights else out
