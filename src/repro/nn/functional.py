"""Functional building blocks on top of :class:`repro.nn.tensor.Tensor`.

These are the op-level primitives used by the layer classes in
:mod:`repro.nn.layers` and :mod:`repro.nn.attention`: numerically stable
softmax / log-softmax, masked softmax (used extensively by the two-stage
policy to exclude infeasible VMs and PMs), layer normalization and
categorical-distribution helpers.

Each fused op is its array kernel plus optional graph recording: the output
is computed first, and when nothing requires grad (or under
``repro.nn.no_grad``) it is returned as a plain Tensor before any backward
closure is built, so inference and training run the same operations in the
same order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, grad_enabled, where

MASK_FILL_VALUE = -1e9

#: Added to the variance before :func:`layer_norm` takes its square root.
LAYER_NORM_EPS = 1e-5


# ---------------------------------------------------------------------- #
# Softmax family
# ---------------------------------------------------------------------- #
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    Implemented as one fused graph node: the attention hot path pushes
    ``(batch, heads, S, S)`` scores through here, and the analytic backward
    ``dx = y * (g - sum(g * y))`` touches two large temporaries instead of the
    five a sub→exp→sum→div chain would allocate and re-copy.
    """
    x = Tensor._ensure(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    out_data = shifted
    if not x.requires_grad or not grad_enabled():
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if axis == -1 or axis == out_data.ndim - 1:
            # einsum avoids materializing the grad·y product array.
            dot = np.einsum("...i,...i->...", grad, out_data)[..., None]
            grad_input = grad - dot
            grad_input *= out_data
        else:
            grad_input = grad * out_data
            grad_input -= out_data * grad_input.sum(axis=axis, keepdims=True)
        x._accumulate(grad_input)

    return Tensor(out_data, requires_grad=True, parents=(x,), backward=backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis`` (fused, like softmax)."""
    x = Tensor._ensure(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    if not x.requires_grad or not grad_enabled():
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        grad_input = grad - np.exp(out_data) * grad.sum(axis=axis, keepdims=True)
        x._accumulate(grad_input)

    return Tensor(out_data, requires_grad=True, parents=(x,), backward=backward)


def mask_to_bias(mask: np.ndarray) -> np.ndarray:
    """Additive attention bias for a boolean keep-mask: 0 kept,
    ``MASK_FILL_VALUE`` masked.

    Computed once and broadcast (over heads / layers) instead of re-expanding
    the boolean mask per consumer.
    """
    return np.where(np.asarray(mask, dtype=bool), 0.0, MASK_FILL_VALUE)


def masked_fill(x: Tensor, mask: np.ndarray) -> Tensor:
    """Replace entries of ``x`` where ``mask`` is False with ``MASK_FILL_VALUE``.

    ``mask`` uses the convention "True means keep" (a feasibility mask).  The
    fill value enters as a scalar operand, so no full-shape fill array is
    materialized.
    """
    mask = np.asarray(mask, dtype=bool)
    return where(mask, x, MASK_FILL_VALUE)


def masked_softmax(x: Tensor, mask: Optional[np.ndarray], axis: int = -1) -> Tensor:
    """Softmax restricted to positions where ``mask`` is True.

    Rows with no feasible entries produce a uniform distribution rather than
    NaNs so that callers can detect and handle the "no feasible action" case
    separately without numerical contamination.
    """
    if mask is None:
        return softmax(x, axis=axis)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        uniform = np.full(x.shape, 1.0 / x.shape[axis])
        return Tensor(uniform)
    filled = masked_fill(x, mask)
    probs = softmax(filled, axis=axis)
    # Zero out masked entries exactly (softmax leaves ~e-9 leakage).
    cleaned = probs * Tensor(mask.astype(float))
    total = cleaned.sum(axis=axis, keepdims=True)
    return cleaned / (total + 1e-12)


def masked_log_softmax(x: Tensor, mask: Optional[np.ndarray], axis: int = -1) -> Tensor:
    if mask is None:
        return log_softmax(x, axis=axis)
    filled = masked_fill(x, mask)
    return log_softmax(filled, axis=axis)


# ---------------------------------------------------------------------- #
# Linear projection
# ---------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused affine transform ``y = x W^T + b`` as one graph node.

    Leading axes are flattened so the projection (and the weight gradient)
    run as single large GEMMs, and the bias is added in place — the chained
    ``matmul``/``add`` formulation allocated an extra full-size output per
    call on every projection in the network.
    """
    data = x.data
    flat = data.reshape(-1, data.shape[-1])
    out_data = flat @ weight.data.T
    out_data += bias.data
    out_data = out_data.reshape(data.shape[:-1] + out_data.shape[-1:])
    if not grad_enabled() or not (x.requires_grad or weight.requires_grad or bias.requires_grad):
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(flat.shape[0], weight.shape[0])
        if x.requires_grad:
            x._accumulate((grad_flat @ weight.data).reshape(x.shape))
        if weight.requires_grad:
            weight._accumulate(grad_flat.T @ flat)
        if bias.requires_grad:
            bias._accumulate(grad_flat.sum(axis=0))

    return Tensor(out_data, requires_grad=True, parents=(x, weight, bias), backward=backward)


# ---------------------------------------------------------------------- #
# Normalization
# ---------------------------------------------------------------------- #
def layer_norm(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Layer normalization over the last dimension.

    Fused into a single graph node with the analytic backward
    ``dx = (g·w − mean(g·w) − x̂ · mean(g·w · x̂)) / σ`` — the op runs on every
    embedding tensor in every block, and the chained mean/sub/div formulation
    built ~10 full-size nodes per call.
    """
    x = Tensor._ensure(x)
    data = x.data
    dim = data.shape[-1]
    mean = data.mean(axis=-1, keepdims=True)
    centered = data - mean
    variance = np.einsum("...i,...i->...", centered, centered)[..., None] / dim
    inv_std = 1.0 / np.sqrt(variance + LAYER_NORM_EPS)
    centered *= inv_std
    normalized = centered
    out_data = normalized * weight.data
    out_data += bias.data
    if not grad_enabled() or not (x.requires_grad or weight.requires_grad or bias.requires_grad):
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        leading = tuple(range(grad.ndim - 1))
        if weight.requires_grad:
            weight._accumulate(
                np.einsum("ri,ri->i", grad.reshape(-1, dim), normalized.reshape(-1, dim))
            )
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=leading))
        if x.requires_grad:
            grad_input = grad * weight.data
            mean_grad = grad_input.mean(axis=-1, keepdims=True)
            mean_proj = np.einsum("...i,...i->...", grad_input, normalized)[..., None] / dim
            grad_input -= mean_grad
            grad_input -= normalized * mean_proj
            grad_input *= inv_std
            x._accumulate(grad_input)

    return Tensor(
        out_data, requires_grad=True, parents=(x, weight, bias), backward=backward
    )


# ---------------------------------------------------------------------- #
# Categorical distribution helpers (used by the PPO policies)
# ---------------------------------------------------------------------- #
def categorical_log_prob(logits: Tensor, actions: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
    """Log-probability of ``actions`` under a (masked) categorical distribution.

    ``logits`` has shape ``(batch, num_actions)`` and ``actions`` is an integer
    vector of shape ``(batch,)``.
    """
    logp = masked_log_softmax(logits, mask, axis=-1)
    actions = np.asarray(actions, dtype=int)
    batch = np.arange(logp.shape[0])
    return logp[batch, actions]


def categorical_entropy(logits: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Entropy of a (masked) categorical distribution, per batch row."""
    probs = masked_softmax(logits, mask, axis=-1)
    logp = masked_log_softmax(logits, mask, axis=-1)
    if mask is not None:
        keep = Tensor(np.asarray(mask, dtype=float))
        return -(probs * logp * keep).sum(axis=-1)
    return -(probs * logp).sum(axis=-1)


def sample_categorical(
    probs: np.ndarray, rng: np.random.Generator, greedy: bool = False
) -> int:
    """Sample an index from a probability vector (or take the argmax)."""
    probs = np.asarray(probs, dtype=float)
    total = probs.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise ValueError("probability vector does not sum to a positive finite value")
    probs = probs / total
    if greedy:
        return int(np.argmax(probs))
    return int(rng.choice(len(probs), p=probs))


def grad_norm(gradients) -> float:
    """Global L2 norm of a list of gradient arrays (``None`` entries skipped).

    Scaling lives in :meth:`repro.nn.optim.Optimizer.clip_gradients`, which
    reassigns out of place — with zero-copy gradient accumulation several
    tensors may share one buffer, so an in-place ``grad *= scale`` helper
    would scale a shared buffer once per aliasing parameter.
    """
    total = 0.0
    for grad in gradients:
        if grad is not None:
            total += float(np.sum(grad ** 2))
    return float(np.sqrt(total))
