"""Neural-network substrate: numpy autograd, layers, attention and optimizers.

This subpackage replaces PyTorch for the purposes of this reproduction (see
``docs/performance.md`` for its kernels).  The public surface mirrors a
minimal ``torch.nn``:

* :class:`~repro.nn.tensor.Tensor` — autograd-enabled numpy wrapper
* :class:`~repro.nn.module.Module` — parameter container base class
* layers — :class:`Linear` (orthogonal weight, zero bias), :class:`LayerNorm`
  (eps ``functional.LAYER_NORM_EPS``), :class:`MLP`, :class:`Sequential`,
  :class:`Activation` (ReLU)
* attention — :class:`MultiHeadAttention`, :class:`TransformerEncoderLayer`,
  :class:`CrossAttentionLayer`, :class:`FeedForward`, :class:`AttentionMask`
* optimizers — :class:`Adam` (betas and eps are the ``optim.ADAM_*``
  constants, no weight decay), :class:`LinearSchedule`
* :mod:`repro.nn.functional` — softmax / masked softmax / distribution helpers
* :mod:`repro.nn.init` — :func:`~repro.nn.init.orthogonal`
* checkpoint helpers — :func:`save_module`, :func:`load_module`
"""

from . import functional
from . import init
from .attention import (
    AttentionMask,
    AttentionState,
    CrossAttentionLayer,
    FeedForward,
    MultiHeadAttention,
    TransformerEncoderLayer,
)
from .layers import MLP, Activation, LayerNorm, Linear, Sequential
from .module import Module
from .optim import Adam, LinearSchedule, Optimizer
from .serialization import (
    CheckpointCorruptError,
    checkpoint_size_bytes,
    load_module,
    save_module,
    verify_checkpoint,
)
from .tensor import (
    Tensor,
    concatenate,
    grad_enabled,
    no_grad,
    ones,
    stack,
    tensor,
    where,
    zeros,
)

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "concatenate",
    "stack",
    "where",
    "no_grad",
    "grad_enabled",
    "Module",
    "Linear",
    "LayerNorm",
    "MLP",
    "Sequential",
    "Activation",
    "AttentionMask",
    "AttentionState",
    "MultiHeadAttention",
    "TransformerEncoderLayer",
    "CrossAttentionLayer",
    "FeedForward",
    "Adam",
    "Optimizer",
    "LinearSchedule",
    "save_module",
    "load_module",
    "checkpoint_size_bytes",
    "verify_checkpoint",
    "CheckpointCorruptError",
    "functional",
    "init",
]
