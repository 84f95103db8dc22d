"""Standard neural-network layers built on the autograd substrate.

These layers implement exactly the components the VMR2L architecture needs:
``Linear`` projections, ``LayerNorm`` (used after every attention block,
§3.3 of the paper), ``MLP`` embedding networks shared across all PMs/VMs
(§3.3 "Scale to Many VMs & PMs") and ``Sequential`` composition.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from . import functional as F
from .init import orthogonal
from .module import Module
from .tensor import Tensor


def _float32_params(module: Module, *params: Tensor) -> List[Tensor]:
    """Cached float32 copies of a module's ``params``.

    A float32 input (float32 inference, ``ModelConfig.inference_dtype``)
    uses them, keeping the whole op in single precision; re-casting every
    weight on every call would dominate, so each copy is cached on the
    module, keyed by the *identity* of ``param.data`` — safe because every
    writer (optimizer steps, checkpoint loads) reassigns ``param.data`` to a
    fresh array rather than mutating it in place.  The copies take no
    gradient: float32 forwards are inference-only.
    """
    cache = module.__dict__.setdefault("_float32_param_cache", {})
    copies: List[Tensor] = []
    for index, param in enumerate(params):
        entry = cache.get(index)
        if entry is None or entry[0] is not param.data:
            entry = cache[index] = (param.data, Tensor(param.data.astype(np.float32)))
        copies.append(entry[1])
    return copies


class Linear(Module):
    """Affine transform ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        gain: float = np.sqrt(2.0),
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        weight = orthogonal((out_features, in_features), rng, gain)
        self.weight = self.register_parameter("weight", Tensor(weight))
        self.bias = self.register_parameter("bias", Tensor(np.zeros(out_features)))

    def forward(self, x: Tensor) -> Tensor:
        weight, bias = self.weight, self.bias
        if x.data.dtype == np.float32:
            weight, bias = _float32_params(self, weight, bias)
        if x.data.ndim >= 2:
            return F.linear(x, weight, bias)
        return x.matmul(weight.swapaxes(0, 1)) + bias


class LayerNorm(Module):
    """Layer normalization over the final feature dimension."""

    def __init__(self, normalized_shape: int) -> None:
        super().__init__()
        self.normalized_shape = normalized_shape
        self.weight = self.register_parameter("weight", Tensor(np.ones(normalized_shape)))
        self.bias = self.register_parameter("bias", Tensor(np.zeros(normalized_shape)))

    def forward(self, x: Tensor) -> Tensor:
        weight, bias = self.weight, self.bias
        if x.data.dtype == np.float32:
            weight, bias = _float32_params(self, weight, bias)
        return F.layer_norm(x, weight, bias)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for idx, module in enumerate(modules):
            self.register_module(str(idx), module)
            self._layers.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


class Activation(Module):
    """The ReLU between two ``Linear`` layers of a ``Sequential``.

    It holds no parameters, but it keeps its slot in the ``Sequential``, so
    the layers around it keep their names (``network.0``, ``network.2``).
    """

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class MLP(Module):
    """Multi-layer perceptron: ``Linear`` layers with a ReLU between each pair.

    This is the shared embedding network the paper applies to every PM's and
    every VM's raw features, keeping the parameter count independent of the
    number of machines (§3.3).
    """

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        final_gain: float = np.sqrt(2.0),
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        sizes = [in_features, *hidden_sizes, out_features]
        layers: List[Module] = []
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            is_last = i == len(sizes) - 2
            gain = final_gain if is_last else np.sqrt(2.0)
            layers.append(Linear(a, b, rng=rng, gain=gain))
            if not is_last:
                layers.append(Activation())
        self.network = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        return self.network(x)

