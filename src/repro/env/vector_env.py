"""Vectorized environments: the shared protocol and the synchronous backend.

PPO collects rollouts from several environments in parallel.  Two backends
implement one :class:`VectorEnv` protocol:

* :class:`SyncVectorEnv` — N environments stepped sequentially in the calling
  process (this module).
* :class:`~repro.env.async_vector_env.AsyncVectorEnv` — N worker processes
  stepping and *featurizing* environments in parallel, shipping observations
  through preallocated shared-memory buffers.

Consumers (``PPOTrainer``, ``act_batch`` drivers) must talk to the protocol
methods only — ``reset`` / ``step`` / ``pm_action_masks`` /
``joint_action_masks`` / ``call`` / ``seed`` / ``close`` — never to
backend-specific attributes such as ``SyncVectorEnv.envs`` (an in-process
implementation detail that does not exist on the async backend).
Environments auto-reset when their episode finishes, and the terminal
observation is replaced by the first observation of the next episode (CleanRL
convention), with the terminal one kept in ``info["terminal_observation"]``.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np


class VectorEnv:
    """Protocol shared by the synchronous and multi-process vector envs.

    Subclasses set :attr:`num_envs` and implement the per-step methods; the
    trainer and every other batched-policy driver accept any
    :class:`VectorEnv` without special-casing the backend.
    """

    num_envs: int = 0

    # -- episode control ----------------------------------------------- #
    def reset(self) -> List:
        """Reset every environment, returning the list of observations."""
        raise NotImplementedError

    def step(self, actions: Sequence) -> Tuple[List, np.ndarray, np.ndarray, List]:
        """Step every environment; returns ``(observations, rewards, dones,
        infos)`` with finished environments auto-reset."""
        raise NotImplementedError

    def close(self) -> None:
        """Release every environment (idempotent)."""
        raise NotImplementedError

    # -- two-stage / full-joint mask access ---------------------------- #
    def pm_action_masks(self, vm_indices: Sequence[int]) -> np.ndarray:
        """Stacked stage-2 masks: row *i* is env *i*'s PM feasibility mask for
        the VM at ``vm_indices[i]`` — ONE batched exchange on the async
        backend instead of an RPC per environment."""
        raise NotImplementedError

    def pm_action_masks_begin(self, vm_indices: Sequence[int]):
        """Two-phase :meth:`pm_action_masks`: issue the exchange now, collect later.

        Returns a zero-argument ``fetch`` callable resolving to the stacked
        ``(num_envs, num_pms)`` masks.  ``act_batch`` calls this *before* the
        stage-2 decoder forward and fetches after it, so a multi-process
        backend computes masks concurrently with the decoder GEMMs.  Between
        ``begin`` and ``fetch`` no other exchange may be started (the async
        backend's pipes are lock-step).  This default defers to the blocking
        call at fetch time — correct for in-process backends, which have
        nothing to overlap.
        """
        indices = list(vm_indices)
        return lambda: self.pm_action_masks(indices)

    def pm_action_mask(self, index: int, vm_index: int) -> np.ndarray:
        """Stage-2 mask of a single environment (mixed-size batches, which the
        batched exchange cannot serve)."""
        raise NotImplementedError

    def joint_action_masks(self) -> List[np.ndarray]:
        """Per-env full ``(num_vms, num_pms)`` legality matrices."""
        raise NotImplementedError

    # -- misc ----------------------------------------------------------- #
    def call(self, method_name: str, *args, **kwargs) -> List:
        """Call a method on every wrapped environment and collect results."""
        raise NotImplementedError

    def get_attr(self, name: str) -> List:
        """Read an attribute from every wrapped environment.

        The protocol replacement for poking backend internals like
        ``SyncVectorEnv.envs`` (async workers hold their environments in
        other processes, so attribute values come back as copies).
        """
        raise NotImplementedError

    def seed(self, seed: int) -> None:
        """Seed env *i* with ``seed + i`` — with identical environments this
        makes rollouts reproducible across runs, backends and (for the async
        backend) start methods."""
        raise NotImplementedError

    # Context-manager sugar: both backends hold resources worth releasing.
    def __enter__(self) -> "VectorEnv":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SyncVectorEnv(VectorEnv):
    """Run several environments in lock-step in the calling process."""

    def __init__(self, env_fns: Sequence[Callable[[], object]]) -> None:
        if not env_fns:
            raise ValueError("need at least one environment factory")
        self.envs = [fn() for fn in env_fns]
        self.num_envs = len(self.envs)

    def reset(self) -> List:
        """Reset every environment, returning the list of observations."""
        return [env.reset() for env in self.envs]

    def step(self, actions: Sequence) -> Tuple[List, np.ndarray, np.ndarray, List]:
        """Step every environment with its own action.

        Returns ``(observations, rewards, dones, infos)``; environments that
        finished are reset automatically and report the new episode's first
        observation.
        """
        if len(actions) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} actions, got {len(actions)}")
        observations = []
        rewards = np.zeros(self.num_envs, dtype=float)
        dones = np.zeros(self.num_envs, dtype=bool)
        infos = []
        for index, (env, action) in enumerate(zip(self.envs, actions)):
            observation, reward, done, info = env.step(action)
            if done:
                info = dict(info)
                info["terminal_observation"] = observation
                observation = env.reset()
            observations.append(observation)
            rewards[index] = reward
            dones[index] = done
            infos.append(info)
        return observations, rewards, dones, infos

    def pm_action_masks(self, vm_indices: Sequence[int]) -> np.ndarray:
        if len(vm_indices) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} vm indices, got {len(vm_indices)}")
        return np.stack(
            [
                env.pm_action_mask(int(vm_index))
                for env, vm_index in zip(self.envs, vm_indices)
            ],
            axis=0,
        )

    def pm_action_mask(self, index: int, vm_index: int) -> np.ndarray:
        return self.envs[index].pm_action_mask(int(vm_index))

    def joint_action_masks(self) -> List[np.ndarray]:
        return [env.joint_action_mask() for env in self.envs]

    def call(self, method_name: str, *args, **kwargs) -> List:
        """Call a method on every wrapped environment and collect the results."""
        results = []
        for env in self.envs:
            method = getattr(env, method_name)
            results.append(method(*args, **kwargs))
        return results

    def get_attr(self, name: str) -> List:
        return [getattr(env, name) for env in self.envs]

    def seed(self, seed: int) -> None:
        for index, env in enumerate(self.envs):
            env.seed(seed + index)

    def close(self) -> None:
        for env in self.envs:
            close = getattr(env, "close", None)
            if callable(close):
                close()
