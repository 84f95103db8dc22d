"""The high-level VMR2L agent: train, evaluate, plan, save and load.

:class:`VMR2LAgent` implements the shared :class:`~repro.baselines.base.Rescheduler`
interface, so benchmarks treat it exactly like every baseline: hand it a
mapping snapshot and a migration limit, receive a plan and the inference time.
Planning uses risk-seeking evaluation (§3.4) — several trajectories are
sampled and the best is returned.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..baselines.base import Rescheduler, ReschedulingResult
from ..cluster import ClusterState, ConstraintConfig, MigrationPlan
from ..env.async_vector_env import AsyncVectorEnv
from ..env.objectives import FragmentRateObjective, Objective
from ..env.vector_env import SyncVectorEnv
from ..env.vmr_env import VMRescheduleEnv
from ..nn import load_module, no_grad, save_module
from .config import VMR2LConfig
from .policy import TwoStagePolicy
from .ppo import PPOTrainer, TrainingLogEntry
from .risk_seeking import risk_seeking_evaluate, rollout_trajectory
from .step_cache import StepCache


class _SampledTrainEnvFactory:
    """Picklable factory building one training environment.

    Async workers construct their environments in the worker process — under
    the ``spawn`` start method the factory itself is pickled, so it must be a
    module-level callable object, not a closure.  Each factory carries its
    own sampler seed: the same ``(seed, num_workers)`` pair reproduces the
    same per-env episode streams across runs and start methods.
    """

    def __init__(
        self,
        states: Sequence[ClusterState],
        constraint_config: ConstraintConfig,
        objective: Objective,
        illegal_action_penalty: Optional[float],
        sampler_seed: int,
    ) -> None:
        self.states = list(states)
        self.constraint_config = constraint_config
        self.objective = objective
        self.illegal_action_penalty = illegal_action_penalty
        self.sampler_seed = sampler_seed

    def __call__(self) -> VMRescheduleEnv:
        rng = np.random.default_rng(self.sampler_seed)
        states = self.states

        def sample_state() -> ClusterState:
            return states[rng.integers(len(states))]

        return VMRescheduleEnv(
            state_sampler=sample_state,
            constraint_config=self.constraint_config,
            objective=self.objective,
            illegal_action_penalty=self.illegal_action_penalty,
        )


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
        self._info: Dict = {}

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
        num_workers: int = 0,
        num_envs: Optional[int] = None,
        start_method: Optional[str] = None,
        on_worker_failure: str = "raise",
        worker_timeout_s: Optional[float] = None,
    ) -> List[TrainingLogEntry]:
        """Train PPO on episodes sampled uniformly from ``train_states``.

        ``illegal_action_penalty`` activates the §5.4 Penalty ablation; leave
        it ``None`` for the (default) masked two-stage and full-joint modes.

        ``num_workers`` selects the experience-collection backend:

        * ``0`` (default) — an in-process
          :class:`~repro.env.vector_env.SyncVectorEnv` of ``num_envs``
          environments (default one).
        * ``> 0`` — an :class:`~repro.env.async_vector_env.AsyncVectorEnv`
          with ``num_envs`` environments (default ``num_workers``, i.e. one
          per worker) sharded over that many worker processes; environments
          step and featurize in parallel while the policy forward stays in
          this process.  ``start_method`` picks ``fork``/``spawn`` (training
          states are pickled to each worker under ``spawn``).

        ``on_worker_failure`` / ``worker_timeout_s`` forward to the async
        env's supervisor: ``"restart"`` keeps long training runs alive
        through worker crashes (and, with a timeout, hangs) by respawning
        the failed shard in place.
        """
        if not train_states:
            raise ValueError("train_states must not be empty")
        if num_workers < 0:
            raise ValueError("num_workers must not be negative")
        train_states = list(train_states)

        penalty = illegal_action_penalty
        if penalty is None and self.config.model.action_mode == "penalty":
            penalty = -5.0

        count = num_envs if num_envs else max(num_workers, 1)
        if count < max(num_workers, 1):
            raise ValueError("num_envs must be >= num_workers")
        factories = [
            _SampledTrainEnvFactory(
                train_states,
                self.constraint_config,
                self.objective,
                penalty,
                sampler_seed=self.seed + 1 + index,
            )
            for index in range(count)
        ]
        if num_workers > 0:
            env = AsyncVectorEnv(
                factories,
                num_workers=num_workers,
                start_method=start_method,
                seed=self.seed,
                # Samplers draw snapshots of varying size; size the shared
                # buffers for the largest training mapping up front.
                max_pms=max(state.num_pms for state in train_states),
                max_vms=max(state.num_vms for state in train_states),
                on_worker_failure=on_worker_failure,
                worker_timeout_s=worker_timeout_s,
            )
        else:
            env = SyncVectorEnv(factories)

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
    def _compute(self, state: ClusterState, migration_limit: int) -> MigrationPlan:
        outcome = risk_seeking_evaluate(
            self.policy,
            state,
            migration_limit,
            config=self.config.risk_seeking,
            objective=self.objective,
            constraint_config=self.constraint_config,
            seed=int(self.rng.integers(2 ** 31 - 1)),
        )
        self._info = {
            "num_trajectories": outcome.num_trajectories,
            "best_objective": outcome.best.final_objective,
            "objective_spread": float(outcome.objectives().max() - outcome.objectives().min()),
        }
        return outcome.best.plan

    def _last_info(self) -> Dict:
        return dict(self._info)

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

        Episodes advance in lock-step: at each step the observations of the
        running episodes go through ONE :meth:`TwoStagePolicy.act_batch` call
        (one stacked extractor forward per cluster size present), instead of
        one full forward per request.  In greedy mode the sampled
        action is the argmax of the same masked distribution the per-request
        :meth:`plan_single_trajectory` path computes, so micro-batched plans
        are identical to sequential ones.

        ``migration_limits`` may be a single limit or one per state.
        ``max_active`` caps the number of concurrently-running episodes;
        batching is *continuous*: when an episode finishes early (no movable
        VM, limit reached) a queued snapshot is admitted into the freed slot,
        keeping the stacked forward full.

        ``use_step_cache`` (default on) carries a
        :class:`~repro.core.step_cache.StepCache` across the lock-step
        decision steps: each episode's featurization and first-block tree
        attention re-run only for the rows/trees its last migration touched,
        and the first block's dense VM↔VM attention is updated from its
        stored softmax state for the changed rows alone (when every episode
        in the stacked forward is past its first step and few enough rows
        changed; otherwise the full kernel runs), so everything before
        block 1 costs what the migration changed rather than the cluster.
        Entries follow episodes through continuous admission (cache keys are
        per-episode chains).  Caching computes the same function as a fresh
        forward; reused tree outputs and updated attention rows can differ
        from a recompute by rounding (~1e-15 relative), so cached plans equal
        fresh-recompute plans except at exact argmax ties at that level
        (pinned by the step-cache parity suite).

        ``deadline_s`` is a wall-clock budget for the whole call: the
        remaining budget is checked between lock-step decision steps, and
        when it runs out the rollout stops where it stands — every episode
        keeps the (valid, applicable) migrations it executed so far, and its
        result carries ``info["partial"] = True`` when the episode did not
        finish.  Steps already in flight complete, so the call overshoots
        the budget by at most one stacked forward.  Deadline-bounded plans
        are a *prefix* of the unbounded greedy plan (the per-step argmax
        does not depend on the budget).
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
        rng = np.random.default_rng(seed)
        illegal_penalty = -5.0 if self.policy.config.action_mode == "penalty" else None
        joint_mode = self.policy.config.action_mode == "full_joint"
        slots = max_active if max_active is not None else len(states)
        # Size the cache to the admission width: every active episode keeps
        # one live chain entry, and evicting a live chain degrades that
        # episode to full recompute on every subsequent step.
        step_cache = StepCache(max_chains=max(slots, 128)) if use_step_cache else None

        start = time.perf_counter()
        envs: List[Optional[VMRescheduleEnv]] = [None] * len(states)
        observations: List = [None] * len(states)
        waiting: List[int] = []
        finished: set = set()
        for index, limit in enumerate(migration_limits):
            if limit > 0:
                waiting.append(index)
            else:
                finished.add(index)  # nothing requested: trivially complete
        waiting.reverse()  # pop() admits in request order
        active: List[int] = []

        def admit() -> None:
            while waiting and len(active) < slots:
                index = waiting.pop()
                config = ConstraintConfig(
                    migration_limit=migration_limits[index],
                    honor_anti_affinity=self.constraint_config.honor_anti_affinity,
                    allow_source_pm=self.constraint_config.allow_source_pm,
                    check_memory=self.constraint_config.check_memory,
                )
                env = VMRescheduleEnv(
                    states[index],
                    config,
                    objective=objective,
                    illegal_action_penalty=illegal_penalty,
                )
                envs[index] = env
                observations[index] = env.reset()
                active.append(index)

        deadline_hit = False
        while active or waiting:
            if deadline_s is not None and time.perf_counter() - start >= deadline_s:
                deadline_hit = True
                break
            admit()
            # Episodes whose observation has no movable VM end immediately
            # (mirrors the rollout_trajectory loop guard).
            running: List[int] = []
            for i in active:
                if observations[i].vm_mask.any():
                    running.append(i)
                else:
                    finished.add(i)
            active = running
            if not active:
                continue
            batch_obs = [observations[i] for i in active]
            pm_mask_fns = [envs[i].pm_action_mask for i in active]
            joint_masks = [envs[i].joint_action_mask() for i in active] if joint_mode else None
            # Serving rollouts never backpropagate: run the forward without
            # recording a graph (and in the configured inference_dtype).
            with no_grad():
                outputs = self.policy.act_batch(
                    batch_obs,
                    pm_mask_fns,
                    rng=rng,
                    greedy=greedy,
                    joint_masks=joint_masks,
                    compute_stats=False,
                    step_cache=step_cache,
                )
            still_running: List[int] = []
            for index, output in zip(active, outputs):
                observation, _, done, _ = envs[index].step(output.action)
                observations[index] = observation
                if not done:
                    still_running.append(index)
                else:
                    finished.add(index)
            active = still_running
        elapsed = time.perf_counter() - start

        # Attribute the batch's wall time to requests by their share of
        # decision steps, so per-request inference_seconds is comparable to
        # the per-request timing of sequentially-dispatched planners; the
        # whole-batch wall time is kept in info["batch_seconds"].
        total_steps = sum(env.steps_taken for env in envs if env is not None)
        results: List[ReschedulingResult] = []
        for index, env in enumerate(envs):
            if env is None:
                info = {"noop": True, "batch_size": min(len(states), slots)}
                if deadline_s is not None:
                    # A queued episode the budget never admitted is a partial
                    # plan of length zero, not a no-op the caller asked for.
                    info["partial"] = index not in finished
                results.append(
                    ReschedulingResult(
                        plan=MigrationPlan(),
                        inference_seconds=0.0,
                        algorithm=self.name,
                        info=info,
                    )
                )
                continue
            share = env.steps_taken / total_steps if total_steps else 1.0 / len(states)
            info = {
                "batch_size": min(len(states), slots),
                "batch_seconds": elapsed,
                "final_objective": env.episode_metric(),
                "greedy": greedy,
            }
            if deadline_s is not None:
                info["partial"] = index not in finished
                info["deadline_hit"] = deadline_hit
            results.append(
                ReschedulingResult(
                    plan=env.executed_plan().truncated(migration_limits[index]),
                    inference_seconds=elapsed * share,
                    algorithm=self.name,
                    info=info,
                )
            )
        return results

    def plan_single_trajectory(
        self, state: ClusterState, migration_limit: int, greedy: bool = True, seed: int = 0
    ) -> MigrationPlan:
        """One-trajectory planning (no risk-seeking), used by ablations."""
        trajectory = rollout_trajectory(
            self.policy,
            state,
            migration_limit,
            np.random.default_rng(seed),
            objective=self.objective,
            constraint_config=self.constraint_config,
            greedy=greedy,
        )
        return trajectory.plan

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
        """Mean initial/final objective over ``states`` with single-trajectory rollouts."""
        if not states:
            raise ValueError("states must not be empty")
        migration_limit = migration_limit or self.config.migration_limit
        rng = np.random.default_rng(seed)
        initial, final = [], []
        for state in states:
            trajectory = rollout_trajectory(
                self.policy,
                state,
                migration_limit,
                rng,
                objective=self.objective,
                constraint_config=self.constraint_config,
                greedy=greedy,
            )
            initial.append(self.objective.episode_metric(state))
            final.append(trajectory.final_objective)
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
