"""Several environments stepped in lock-step in the calling process.

PPO collects rollouts from a :class:`SyncVectorEnv`: N environments stepped
sequentially, with the policy's stacked forward over all of them in between.
Environments auto-reset when their episode finishes, and the terminal
observation is replaced by the first observation of the next episode (CleanRL
convention), with the terminal one kept in ``info["terminal_observation"]``.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np


class SyncVectorEnv:
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

    def pm_action_mask(self, index: int, vm_index: int) -> np.ndarray:
        """Stage-2 mask of env ``index``: PMs able to host its VM ``vm_index``."""
        return self.envs[index].pm_action_mask(int(vm_index))

    def joint_action_masks(self) -> List[np.ndarray]:
        """Per-env full ``(num_vms, num_pms)`` legality matrices."""
        return [env.joint_action_mask() for env in self.envs]

    def close(self) -> None:
        for env in self.envs:
            close = getattr(env, "close", None)
            if callable(close):
                close()
