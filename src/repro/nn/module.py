"""Module base class with parameter registration, mirroring ``torch.nn.Module``.

A :class:`Module` owns named :class:`~repro.nn.tensor.Tensor` parameters and
child modules.  ``parameters()`` / ``named_parameters()`` walk the tree, and
``state_dict()`` / ``load_state_dict()`` provide the flat representation used
by :mod:`repro.nn.serialization` for checkpointing.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        """Register ``tensor`` as a trainable parameter under ``name``."""
        tensor.requires_grad = True
        tensor.name = name
        self._parameters[name] = tensor
        return tensor

    def register_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Module) and name not in ("_modules", "_parameters"):
            object.__getattribute__(self, "_modules")[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield (prefix + name, param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Tensor]:
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # State dict
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of parameter names to copied arrays."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values from a flat mapping produced by ``state_dict``."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': checkpoint {value.shape} vs model {param.data.shape}"
                )
            param.data = value.astype(param.data.dtype, copy=True)

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
