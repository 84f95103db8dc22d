"""The high-level VMR2L agent: train, evaluate, plan, save and load.

:class:`VMR2LAgent` implements the shared :class:`~repro.baselines.base.Rescheduler`
interface, so benchmarks treat it exactly like every baseline: hand it a
mapping snapshot and a migration limit, receive a plan and the inference time.
Planning uses risk-seeking evaluation (§3.4) — several trajectories are
sampled and the best is returned.
"""

from __future__ import annotations

import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..baselines.base import Rescheduler, ReschedulingResult
from ..cluster import ClusterState, ConstraintConfig, MigrationPlan
from ..env.objectives import FragmentRateObjective, Objective
from ..env.vector_env import SyncVectorEnv
from ..env.vmr_env import VMRescheduleEnv
from ..nn import load_module, save_module
from .config import VMR2LConfig
from .policy import TwoStagePolicy
from .ppo import PPOTrainer, TrainingLogEntry
from .risk_seeking import risk_seeking_evaluate, rollout_batch
from .step_cache import StepCache


class VMR2LAgent(Rescheduler):
    """Two-stage deep-RL rescheduler (the paper's system)."""

    name = "VMR2L"

    def __init__(
        self,
        config: Optional[VMR2LConfig] = None,
        objective: Optional[Objective] = None,
        constraint_config: Optional[ConstraintConfig] = None,
        seed: int = 0,
        max_pms: Optional[int] = None,
        max_vms: Optional[int] = None,
    ) -> None:
        self.config = config or VMR2LConfig()
        self.objective = objective or FragmentRateObjective()
        self.constraint_config = constraint_config or ConstraintConfig(
            migration_limit=self.config.migration_limit
        )
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.policy = TwoStagePolicy(
            self.config.model,
            rng=np.random.default_rng(seed),
            max_pms=max_pms,
            max_vms=max_vms,
        )
        self.training_history: List[TrainingLogEntry] = []

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def train_on_states(
        self,
        train_states: Sequence[ClusterState],
        total_steps: int,
        eval_states: Optional[Sequence[ClusterState]] = None,
        eval_every: int = 1,
        illegal_action_penalty: Optional[float] = None,
        num_envs: int = 1,
    ) -> List[TrainingLogEntry]:
        """Train PPO on episodes sampled uniformly from ``train_states``.

        ``illegal_action_penalty`` activates the §5.4 Penalty ablation; leave
        it ``None`` for the (default) masked two-stage and full-joint modes.

        Experience is collected from a
        :class:`~repro.env.vector_env.SyncVectorEnv` of ``num_envs``
        environments, each sampling its own episode stream.
        """
        if not train_states:
            raise ValueError("train_states must not be empty")
        if num_envs < 1:
            raise ValueError("num_envs must be >= 1")
        train_states = list(train_states)

        penalty = illegal_action_penalty
        if penalty is None and self.config.model.action_mode == "penalty":
            penalty = -5.0

        def make_env(sampler_seed: int) -> VMRescheduleEnv:
            rng = np.random.default_rng(sampler_seed)
            return VMRescheduleEnv(
                state_sampler=lambda: train_states[rng.integers(len(train_states))],
                constraint_config=self.constraint_config,
                objective=self.objective,
                illegal_action_penalty=penalty,
            )

        # One sampler seed per env: the same (seed, num_envs) reproduces the
        # same per-env episode streams.
        env = SyncVectorEnv(
            [partial(make_env, self.seed + 1 + index) for index in range(num_envs)]
        )

        eval_callback = None
        if eval_states:
            eval_states = list(eval_states)

            def eval_callback(policy: TwoStagePolicy) -> float:
                return self.evaluate(eval_states, greedy=True)["mean_final_objective"]

        trainer = PPOTrainer(self.policy, env, self.config.ppo, eval_callback=eval_callback)
        try:
            history = trainer.train(total_steps, eval_every=eval_every)
        finally:
            env.close()
        self.training_history.extend(history)
        return history

    # ------------------------------------------------------------------ #
    # Planning (Rescheduler interface)
    # ------------------------------------------------------------------ #
    def compute_plan(self, state: ClusterState, migration_limit: int) -> ReschedulingResult:
        """Risk-seeking plan (§3.4) seeded from the agent's own stream."""
        seed = int(self.rng.integers(2 ** 31 - 1))
        return self.plan_batch([state], migration_limit, greedy=False, seed=seed)[0]

    def plan_batch(
        self,
        states: Sequence[ClusterState],
        migration_limits: Union[int, Sequence[int]] = 10,
        greedy: bool = True,
        seed: int = 0,
        objective: Optional[Objective] = None,
        max_active: Optional[int] = None,
        use_step_cache: bool = True,
        deadline_s: Optional[float] = None,
    ) -> List[ReschedulingResult]:
        """Plan for several snapshots with micro-batched policy forwards.

        ``greedy=True`` runs one deterministic trajectory per snapshot as a
        row of :func:`~repro.core.risk_seeking.rollout_batch` (see it for
        ``max_active``, ``deadline_s`` and the StepCache that
        ``use_step_cache`` turns on), so a snapshot's plan does not depend on
        its batch neighbours.  ``migration_limits`` may be a single
        limit or one per state.  Each result's ``inference_seconds`` is the
        batch's wall time split by decision-step share; under a deadline its
        info carries ``partial`` (the episode did not finish).

        ``greedy=False`` runs risk-seeking evaluation under
        ``config.risk_seeking`` per snapshot (info: ``num_trajectories``,
        ``best_objective``, ``objective_spread``).  A snapshot's plan depends
        only on the snapshot, its limit, the objective and ``seed`` (the
        per-trajectory seed contract is :func:`risk_seeking_evaluate`'s);
        ``max_active``, ``use_step_cache`` and ``deadline_s`` are unused.
        """
        states = list(states)
        if not states:
            return []
        if isinstance(migration_limits, int):
            migration_limits = [migration_limits] * len(states)
        migration_limits = [int(limit) for limit in migration_limits]
        if len(migration_limits) != len(states):
            raise ValueError("need one migration limit per state")
        if any(limit < 0 for limit in migration_limits):
            raise ValueError("migration_limit must not be negative")
        if max_active is not None and max_active < 1:
            raise ValueError("max_active must be >= 1")
        objective = objective or self.objective
        if not greedy:
            return [
                self._risk_seeking(state, limit, seed, objective)
                for state, limit in zip(states, migration_limits)
            ]
        slots = max_active if max_active is not None else len(states)
        # Size the cache to the admission width: every active episode keeps
        # one live chain entry, and evicting a live chain degrades that
        # episode to full recompute on every subsequent step.
        step_cache = StepCache(max_chains=max(slots, 128)) if use_step_cache else None

        start = time.perf_counter()
        trajectories = rollout_batch(
            self.policy,
            states,
            migration_limits,
            [np.random.default_rng(seed)] * len(states),
            objective=objective,
            constraint_config=self.constraint_config,
            greedy=True,
            step_cache=step_cache,
            max_active=max_active,
            deadline_s=deadline_s,
        )
        elapsed = time.perf_counter() - start

        # Attribute the batch's wall time to requests by their share of
        # decision steps, so per-request inference_seconds is comparable to
        # the per-request timing of sequentially-dispatched planners; the
        # whole-batch wall time is kept in info["batch_seconds"].
        total_steps = sum(trajectory.steps for trajectory in trajectories)
        deadline_hit = any(trajectory.partial for trajectory in trajectories)
        batch_size = min(len(states), slots)
        results: List[ReschedulingResult] = []
        for limit, trajectory in zip(migration_limits, trajectories):
            if limit == 0 or (trajectory.partial and not trajectory.steps):
                # Nothing requested, or a queued episode the budget never
                # admitted (a partial plan of length zero).
                info: Dict = {"noop": True, "batch_size": batch_size}
                if deadline_s is not None:
                    info["partial"] = trajectory.partial
                results.append(ReschedulingResult(MigrationPlan(), 0.0, self.name, info))
                continue
            share = trajectory.steps / total_steps if total_steps else 1.0 / len(states)
            info = {
                "batch_size": batch_size,
                "batch_seconds": elapsed,
                "final_objective": trajectory.final_objective,
                "greedy": True,
            }
            if deadline_s is not None:
                info["partial"] = trajectory.partial
                info["deadline_hit"] = deadline_hit
            results.append(
                ReschedulingResult(trajectory.plan, elapsed * share, self.name, info)
            )
        return results

    def _risk_seeking(
        self, state: ClusterState, migration_limit: int, seed: int, objective: Objective
    ) -> ReschedulingResult:
        start = time.perf_counter()
        outcome = risk_seeking_evaluate(
            self.policy, state, migration_limit, config=self.config.risk_seeking,
            objective=objective, constraint_config=self.constraint_config, seed=seed,
        )
        objectives = outcome.objectives()
        info = {
            "num_trajectories": outcome.num_trajectories,
            "best_objective": outcome.best.final_objective,
            "objective_spread": float(objectives.max() - objectives.min()),
        }
        return ReschedulingResult(outcome.best.plan, time.perf_counter() - start, self.name, info)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        states: Sequence[ClusterState],
        migration_limit: Optional[int] = None,
        greedy: bool = True,
        seed: int = 0,
    ) -> Dict[str, float]:
        """Mean initial/final objective over ``states`` with single-trajectory
        rollouts (one stacked :func:`rollout_batch` call; state ``k`` samples
        from ``np.random.default_rng([seed, k])``)."""
        if not states:
            raise ValueError("states must not be empty")
        if migration_limit is None:
            migration_limit = self.config.migration_limit
        states = list(states)
        trajectories = rollout_batch(
            self.policy,
            states,
            [migration_limit] * len(states),
            [np.random.default_rng([seed, k]) for k in range(len(states))],
            objective=self.objective,
            constraint_config=self.constraint_config,
            greedy=greedy,
        )
        initial = [self.objective.episode_metric(state) for state in states]
        final = [trajectory.final_objective for trajectory in trajectories]
        return {
            "mean_initial_objective": float(np.mean(initial)),
            "mean_final_objective": float(np.mean(final)),
            "mean_improvement": float(np.mean(initial) - np.mean(final)),
            "num_states": len(states),
        }

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Save the policy parameters and configuration to ``path`` (.npz)."""
        metadata = {"config": self.config.to_dict(), "seed": self.seed, "name": self.name}
        return save_module(self.policy, path, metadata=metadata)

    @classmethod
    def load(
        cls,
        path: str | Path,
        objective: Optional[Objective] = None,
        constraint_config: Optional[ConstraintConfig] = None,
        max_pms: Optional[int] = None,
        max_vms: Optional[int] = None,
    ) -> "VMR2LAgent":
        """Rebuild an agent from a checkpoint produced by :meth:`save`."""
        # Read the metadata first to recover the configuration.
        import json

        checkpoint_path = Path(path)
        if checkpoint_path.suffix != ".npz":
            checkpoint_path = checkpoint_path.with_suffix(
                checkpoint_path.suffix + ".npz" if checkpoint_path.suffix else ".npz"
            )
        with np.load(checkpoint_path, allow_pickle=False) as archive:
            metadata = json.loads(bytes(archive["__metadata__"]).decode("utf-8"))
        config = VMR2LConfig.from_dict(metadata["config"])
        agent = cls(
            config=config,
            objective=objective,
            constraint_config=constraint_config,
            seed=int(metadata.get("seed", 0)),
            max_pms=max_pms,
            max_vms=max_vms,
        )
        load_module(agent.policy, path)
        return agent
