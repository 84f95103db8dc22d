"""Rollout storage and generalized advantage estimation for PPO.

The buffer stores one entry per environment step.  Because the observation is
a variable-size structured object (feature matrices plus masks), entries are
kept as Python records rather than flat arrays; the PPO update re-runs the
policy on each stored observation (sizes are small enough that this is the
simplest correct thing to do on CPU).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..env.observation import Observation
from .features import FeatureBatch, build_feature_batch


@dataclass
class Transition:
    """One environment step as seen by the learner."""

    observation: Observation
    vm_index: int
    pm_index: int
    log_prob: float
    value: float
    reward: float
    done: bool
    vm_mask: Optional[np.ndarray]
    pm_mask: Optional[np.ndarray]
    joint_mask: Optional[np.ndarray] = None
    advantage: float = 0.0
    return_: float = 0.0
    #: Lazily-built featurization cache — see :meth:`RolloutBuffer.feature_batch`.
    feature_batch: Optional[FeatureBatch] = None


class RolloutBuffer:
    """Fixed-capacity on-policy buffer with GAE post-processing."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.transitions: List[Transition] = []

    def __len__(self) -> int:
        return len(self.transitions)

    @property
    def full(self) -> bool:
        return len(self.transitions) >= self.capacity

    def add(self, transition: Transition) -> None:
        if self.full:
            raise RuntimeError("rollout buffer is full")
        self.transitions.append(transition)

    def clear(self) -> None:
        self.transitions = []

    def feature_batch(self, index: int) -> FeatureBatch:
        """Cached :class:`FeatureBatch` for the transition at ``index``.

        Featurization (tensor conversion plus tree-mask construction) runs
        once per rollout per transition; every PPO epoch × minibatch that
        revisits the transition reuses the cached batch.  Inputs carry no
        gradients, so reuse across backward passes is safe.
        """
        transition = self.transitions[index]
        if transition.feature_batch is None:
            transition.feature_batch = build_feature_batch(transition.observation)
        return transition.feature_batch

    # ------------------------------------------------------------------ #
    def compute_advantages(
        self,
        last_value: float,
        gamma: float,
        gae_lambda: float,
        normalize: bool = True,
        num_envs: int = 1,
        last_values: Optional[Sequence[float]] = None,
    ) -> None:
        """Fill per-transition advantages and returns using GAE(λ).

        ``last_value`` bootstraps the value of the state following the final
        stored transition (zero if that transition ended an episode).

        With ``num_envs > 1`` the buffer is interpreted as time-major
        interleaved vectorized-env transitions (``t0·env0, t0·env1, ...,
        t1·env0, ...``) and GAE runs independently along each environment's
        chain, bootstrapping env *j* from ``last_values[j]``.
        """
        if not self.transitions:
            return
        if num_envs <= 0:
            raise ValueError("num_envs must be positive")
        if num_envs > 1 and len(self.transitions) % num_envs != 0:
            raise ValueError(
                f"{len(self.transitions)} transitions do not divide into {num_envs} env chains"
            )
        if last_values is None:
            last_values = [last_value] * num_envs
        for env_offset in range(num_envs):
            advantage = 0.0
            next_value = float(last_values[env_offset])
            chain = self.transitions[env_offset::num_envs]
            for transition in reversed(chain):
                next_non_terminal = 0.0 if transition.done else 1.0
                delta = transition.reward + gamma * next_value * next_non_terminal - transition.value
                advantage = delta + gamma * gae_lambda * next_non_terminal * advantage
                transition.advantage = advantage
                transition.return_ = advantage + transition.value
                next_value = transition.value

        if normalize:
            advantages = np.array([t.advantage for t in self.transitions])
            std = advantages.std()
            mean = advantages.mean()
            if std > 1e-8:
                for transition in self.transitions:
                    transition.advantage = (transition.advantage - mean) / (std + 1e-8)

    def minibatch_indices(self, minibatch_size: int, rng: np.random.Generator):
        """Yield shuffled index arrays covering the buffer once."""
        if minibatch_size <= 0:
            raise ValueError("minibatch_size must be positive")
        indices = np.arange(len(self.transitions))
        rng.shuffle(indices)
        for start in range(0, len(indices), minibatch_size):
            yield indices[start : start + minibatch_size]

    # Aggregate diagnostics -------------------------------------------- #
    def mean_reward(self) -> float:
        if not self.transitions:
            return 0.0
        return float(np.mean([t.reward for t in self.transitions]))

    def mean_value(self) -> float:
        if not self.transitions:
            return 0.0
        return float(np.mean([t.value for t in self.transitions]))
