"""PPO training loop for the two-stage VMR2L policy (§4, CleanRL-style).

The trainer alternates between collecting on-policy rollouts from the
rescheduling environment and running clipped-surrogate updates.  The
environment is deterministic, so all stochasticity comes from the policy's
action sampling — exactly the setting the paper exploits for data efficiency
(§7 "Efficient Training in Deterministic Environments").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

import numpy as np

from ..env.vector_env import SyncVectorEnv, VectorEnv
from ..nn import Adam, LinearSchedule, Tensor, no_grad
from ..nn import functional as F
from .config import PPOConfig
from .policy import TwoStagePolicy
from .rollout import RolloutBuffer, Transition


@dataclass
class TrainingLogEntry:
    """Metrics recorded after each PPO update."""

    update: int
    global_step: int
    mean_reward: float
    policy_loss: float
    value_loss: float
    entropy: float
    approx_kl: float
    learning_rate: float
    eval_metric: Optional[float] = None
    wall_clock_s: float = 0.0


class PPOTrainer:
    """Collect rollouts and optimize the policy with PPO.

    ``env`` may be any :class:`~repro.env.vector_env.VectorEnv` — the
    synchronous in-process backend or the multi-process
    :class:`~repro.env.async_vector_env.AsyncVectorEnv`; the trainer only
    talks to the shared protocol, so both collect identically — or a bare
    :class:`~repro.env.vmr_env.VMRescheduleEnv`, which is wrapped as a
    one-env :class:`SyncVectorEnv`.  Each collection step stacks the per-env
    observations and calls :meth:`TwoStagePolicy.act_batch`, one
    feature-extractor forward for all environments.
    """

    def __init__(
        self,
        policy: TwoStagePolicy,
        env,
        config: Optional[PPOConfig] = None,
        eval_callback: Optional[Callable[[TwoStagePolicy], float]] = None,
    ) -> None:
        self.policy = policy
        self.env: VectorEnv = env if isinstance(env, VectorEnv) else SyncVectorEnv([lambda: env])
        self.config = config or PPOConfig()
        self.eval_callback = eval_callback
        self.optimizer = Adam(policy.parameters(), lr=self.config.learning_rate)
        self.rng = np.random.default_rng(self.config.seed)
        self.global_step = 0
        self.history: List[TrainingLogEntry] = []
        self._observations = None

    # ------------------------------------------------------------------ #
    # Rollout collection
    # ------------------------------------------------------------------ #
    def _transitions_per_rollout(self) -> int:
        """Transitions one collect_rollout() call actually yields.

        Collection runs in whole env-rows, so the per-rollout count is
        ``(rollout_steps // num_envs) * num_envs`` (at least one row) —
        ``train`` uses this so its update count honors ``total_steps``.
        """
        num_envs = self.env.num_envs
        return max(self.config.rollout_steps // num_envs, 1) * num_envs

    def collect_rollout(self) -> RolloutBuffer:
        """Collect about ``rollout_steps`` transitions with batched policy forwards.

        Per step the policy runs ONE extractor forward over the stacked
        observations (``act_batch``), and the stage-2 masks come back through
        ONE ``pm_action_masks`` exchange — on the async backend that is a
        single round trip to the worker pool.  Forwards run under
        ``repro.nn.no_grad`` without the entropy terms: PPO recomputes
        everything differentiable during the update, and the sampled actions,
        log-probs and values are bit-for-bit those of a tracking forward.
        The vector env resets finished episodes itself.  The buffer stores
        transitions time-major interleaved; GAE runs per env.  Only protocol
        methods are used, so the sync and multi-process backends collect
        bit-for-bit identical rollouts under one seed.
        """
        venv = self.env
        num_envs = venv.num_envs
        buffer = RolloutBuffer(self._transitions_per_rollout())
        if self._observations is None:
            self._observations = venv.reset()

        full_joint = self.policy.config.action_mode == "full_joint"
        two_stage = self.policy.config.action_mode == "two_stage"
        # Per-env mask fns serve envs of different cluster sizes; a same-size
        # step uses the batched exchange instead.
        pm_mask_fns = [partial(venv.pm_action_mask, index) for index in range(num_envs)]

        while not buffer.full:
            observations = self._observations
            joint_masks = venv.joint_action_masks() if full_joint else None
            with no_grad():
                outputs = self.policy.act_batch(
                    observations,
                    pm_mask_fns=pm_mask_fns,
                    rng=self.rng,
                    joint_masks=joint_masks,
                    compute_stats=False,
                    pm_masks_fn=venv.pm_action_masks,
                    # Two-phase stage-2 exchange: the mask request is issued
                    # before the decoder forward and collected after it, so
                    # async workers build masks while the parent runs GEMMs.
                    pm_masks_begin_fn=venv.pm_action_masks_begin,
                )
            actions = [output.action for output in outputs]
            next_observations, rewards, dones, _ = venv.step(actions)
            self.global_step += num_envs
            for index, output in enumerate(outputs):
                observation = observations[index]
                buffer.add(
                    Transition(
                        observation=observation,
                        vm_index=output.vm_index,
                        pm_index=output.pm_index,
                        log_prob=output.log_prob,
                        value=output.value,
                        reward=float(rewards[index]),
                        done=bool(dones[index]),
                        vm_mask=observation.vm_mask.copy() if two_stage else None,
                        pm_mask=None if output.pm_mask is None else output.pm_mask.copy(),
                        joint_mask=None if joint_masks is None else joint_masks[index].copy(),
                    )
                )
            self._observations = next_observations

        # One stacked forward bootstraps every env; done envs bootstrap 0.
        with no_grad():
            bootstrap = self.policy.value_of_batch(self._observations)
        last_values = [
            0.0 if buffer.transitions[-num_envs + index].done else bootstrap[index]
            for index in range(num_envs)
        ]
        buffer.compute_advantages(
            0.0,
            gamma=self.config.gamma,
            gae_lambda=self.config.gae_lambda,
            normalize=self.config.normalize_advantages,
            num_envs=num_envs,
            last_values=last_values,
        )
        return buffer

    # ------------------------------------------------------------------ #
    # Optimization
    # ------------------------------------------------------------------ #
    def update(self, buffer: RolloutBuffer) -> Dict[str, float]:
        """Run the clipped-PPO update over the collected rollout.

        Every minibatch is evaluated through
        :meth:`TwoStagePolicy.evaluate_actions_batch` — one stacked extractor
        forward over cached per-transition featurizations — and the clipped
        surrogate, value loss and entropy bonus are single tensor expressions
        over the minibatch with one ``backward()`` call.
        """
        config = self.config
        policy_losses, value_losses, entropies, kls = [], [], [], []
        stop = False
        for _ in range(config.update_epochs):
            if stop:
                break
            for indices in buffer.minibatch_indices(config.minibatch_size, self.rng):
                if indices.size == 0:
                    continue
                self.optimizer.zero_grad()
                batch_kl = self._minibatch_step(buffer, indices, policy_losses,
                                                value_losses, entropies)
                self.optimizer.clip_gradients(config.max_grad_norm)
                self.optimizer.step()
                kls.extend(batch_kl)
                if config.target_kl is not None and np.mean(np.abs(batch_kl)) > config.target_kl:
                    stop = True
                    break
        return {
            "policy_loss": float(np.mean(policy_losses)) if policy_losses else 0.0,
            "value_loss": float(np.mean(value_losses)) if value_losses else 0.0,
            "entropy": float(np.mean(entropies)) if entropies else 0.0,
            "approx_kl": float(np.mean(np.abs(kls))) if kls else 0.0,
        }

    def _minibatch_step(
        self,
        buffer: RolloutBuffer,
        indices: np.ndarray,
        policy_losses: List[float],
        value_losses: List[float],
        entropies: List[float],
    ) -> List[float]:
        """Minibatch loss: one evaluate-batch call, one backward."""
        config = self.config
        transitions = [buffer.transitions[index] for index in indices]
        log_probs, entropy, values = self.policy.evaluate_actions_batch(
            [t.observation for t in transitions],
            [t.vm_index for t in transitions],
            [t.pm_index for t in transitions],
            vm_masks=[t.vm_mask for t in transitions],
            pm_masks=[t.pm_mask for t in transitions],
            joint_masks=[t.joint_mask for t in transitions],
            feature_batches=[buffer.feature_batch(index) for index in indices],
        )
        old_log_probs = np.array([t.log_prob for t in transitions])
        advantages = np.array([t.advantage for t in transitions])
        returns = np.array([t.return_ for t in transitions])

        ratio = (log_probs - Tensor(old_log_probs)).exp()
        surrogate1 = ratio * Tensor(advantages)
        surrogate2 = ratio.clip(1.0 - config.clip_coef, 1.0 + config.clip_coef) * Tensor(advantages)
        per_policy = -F.where(surrogate1.numpy() <= surrogate2.numpy(), surrogate1, surrogate2)
        per_value = (values - Tensor(returns)) ** 2
        loss = (
            per_policy + config.value_coef * per_value - config.entropy_coef * entropy
        ).mean()
        loss.backward()

        policy_losses.extend(per_policy.numpy().tolist())
        value_losses.extend(per_value.numpy().tolist())
        entropies.extend(entropy.numpy().tolist())
        return (old_log_probs - log_probs.numpy()).tolist()

    # ------------------------------------------------------------------ #
    # Full training loop
    # ------------------------------------------------------------------ #
    def train(self, total_steps: int, eval_every: int = 1) -> List[TrainingLogEntry]:
        """Train until ``total_steps`` environment steps have been collected."""
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        num_updates = max(total_steps // self._transitions_per_rollout(), 1)
        schedule = LinearSchedule(self.config.learning_rate, self.config.learning_rate * 0.05, num_updates)
        start = time.perf_counter()
        for update_index in range(1, num_updates + 1):
            if self.config.anneal_lr:
                learning_rate = schedule.apply(self.optimizer, update_index - 1)
            else:
                learning_rate = self.config.learning_rate
            buffer = self.collect_rollout()
            stats = self.update(buffer)
            eval_metric = None
            if self.eval_callback is not None and update_index % eval_every == 0:
                eval_metric = float(self.eval_callback(self.policy))
            entry = TrainingLogEntry(
                update=update_index,
                global_step=self.global_step,
                mean_reward=buffer.mean_reward(),
                policy_loss=stats["policy_loss"],
                value_loss=stats["value_loss"],
                entropy=stats["entropy"],
                approx_kl=stats["approx_kl"],
                learning_rate=learning_rate,
                eval_metric=eval_metric,
                wall_clock_s=time.perf_counter() - start,
            )
            self.history.append(entry)
        return self.history
