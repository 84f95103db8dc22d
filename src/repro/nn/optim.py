"""Optimizers and learning-rate schedules for the :mod:`repro.nn` substrate.

Provides Adam (the PPO default) with gradient clipping integration, and the
linear-anneal schedule used by CleanRL-style training.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from .functional import grad_norm
from .tensor import Tensor

#: Adam's moment decay rates and denominator guard (the Kingma & Ba
#: defaults CleanRL's PPO uses).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, parameters: Iterable[Tensor], lr: float) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def clip_gradients(self, max_norm: float) -> float:
        """Scale gradients to a maximum global norm; returns the pre-clip norm.

        Scaling reassigns ``param.grad`` out of place: zero-copy gradient
        accumulation can leave several tensors sharing one buffer, so an
        in-place multiply here could scale a shared buffer twice.
        """
        total_norm = grad_norm(param.grad for param in self.parameters)
        if max_norm > 0.0 and total_norm > max_norm:
            scale = max_norm / (total_norm + 1e-8)
            for param in self.parameters:
                if param.grad is not None:
                    param.grad = param.grad * scale
        return total_norm

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> Dict:
        return {"lr": self.lr}

    def load_state_dict(self, state: Dict) -> None:
        self.lr = float(state.get("lr", self.lr))


class Adam(Optimizer):
    """Adam optimizer with bias correction (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 3e-4) -> None:
        super().__init__(parameters, lr)
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - ADAM_BETA1 ** self._step_count
        bias2 = 1.0 - ADAM_BETA2 ** self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad ** 2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def state_dict(self) -> Dict:
        return {
            "lr": self.lr,
            "step_count": self._step_count,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: Dict) -> None:
        # A state saved while eps and weight decay were options loads: those
        # keys only ever held ADAM_EPS and zero, and are ignored.
        super().load_state_dict(state)
        self._step_count = int(state.get("step_count", self._step_count))
        if "m" in state:
            self._m = [np.asarray(m).copy() for m in state["m"]]
        if "v" in state:
            self._v = [np.asarray(v).copy() for v in state["v"]]


class LinearSchedule:
    """Linearly anneal a value (e.g. learning rate) from start to end."""

    def __init__(self, start: float, end: float, total_steps: int) -> None:
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.start = start
        self.end = end
        self.total_steps = total_steps

    def value(self, step: int) -> float:
        fraction = min(max(step, 0), self.total_steps) / self.total_steps
        return self.start + fraction * (self.end - self.start)

    def apply(self, optimizer: Optimizer, step: int) -> float:
        lr = self.value(step)
        optimizer.lr = lr
        return lr

