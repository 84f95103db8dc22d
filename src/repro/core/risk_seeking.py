"""Risk-seeking evaluation (§3.4).

VMR has a perfect world model: the simulator can score any candidate migration
trajectory exactly.  Risk-seeking evaluation therefore samples several
trajectories from the stochastic policy, evaluates each one's final objective
with the simulator, and deploys only the best.  Action thresholding masks out
VMs/PMs whose selection probability falls below a quantile so that the sampled
trajectories do not contain obviously sub-optimal actions.

Every rollout — greedy serving, sampled trajectories, risk-seeking and
evaluation — runs through one lock-step driver, :func:`rollout_batch`; a
single trajectory is a batch of one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cluster import ClusterState, ConstraintConfig, MigrationPlan
from ..env.objectives import FragmentRateObjective, Objective
from ..env.vmr_env import ILLEGAL_ACTION_PENALTY, VMRescheduleEnv
from ..nn import no_grad
from .config import RiskSeekingConfig
from .policy import TwoStagePolicy
from .step_cache import StepCache


@dataclass
class TrajectoryResult:
    """One migration trajectory and its simulator-computed objective."""

    plan: MigrationPlan
    final_objective: float
    total_reward: float
    greedy: bool = False
    #: The deadline stopped the rollout before this episode finished.
    partial: bool = False
    #: Decision steps taken (penalty-mode illegal steps included).
    steps: int = 0


@dataclass
class RiskSeekingOutcome:
    """Result of risk-seeking evaluation over several trajectories."""

    best: TrajectoryResult
    trajectories: List[TrajectoryResult] = field(default_factory=list)

    @property
    def num_trajectories(self) -> int:
        return len(self.trajectories)

    def objectives(self) -> np.ndarray:
        return np.array([trajectory.final_objective for trajectory in self.trajectories])


def rollout_batch(
    policy: TwoStagePolicy,
    states: Sequence[ClusterState],
    migration_limits: Sequence[int],
    rngs: Sequence[np.random.Generator],
    objective: Optional[Objective] = None,
    greedy: bool = False,
    vm_quantile: Optional[float] = None,
    pm_quantile: Optional[float] = None,
    step_cache: Optional[StepCache] = None,
    max_active: Optional[int] = None,
    deadline_s: Optional[float] = None,
) -> List[TrajectoryResult]:
    """Roll out one episode per state in lock-step: the one rollout driver.

    At each decision step the observations of the running episodes go
    through ONE :meth:`TwoStagePolicy.act_batch` call without a graph (one
    stacked extractor forward per cluster size present).  Row ``i`` samples
    from ``rngs[i]`` (repeat one generator to share a stream), so with
    per-row generators a row's trajectory depends neither on the batch size
    nor on its neighbours; greedy rows take the argmax of the distribution a
    batch of one computes.  A limit of zero is a no-op row; each row runs
    under its own ``migration_limits`` entry.

    ``max_active`` caps the number of concurrently-running episodes; batching
    is *continuous*: when an episode finishes early (no movable VM, limit
    reached) a queued state is admitted into the freed slot.

    ``step_cache`` carries a :class:`StepCache` across the decision steps:
    each episode's featurization and first-block tree attention re-run only
    for the rows/trees its last migration touched, and the first block's
    dense VM↔VM attention is updated from its stored softmax state for the
    changed rows alone (when every episode in the stacked forward is past its
    first step and few enough rows changed; otherwise the full kernel runs).
    Entries follow episodes through continuous admission (cache keys are
    per-episode chains).  Reused tree outputs and updated attention rows can
    differ from a recompute by rounding (~1e-15 relative), so cached plans
    equal fresh-recompute plans except at exact argmax ties at that level.

    ``deadline_s`` is a wall-clock budget checked between decision steps:
    when it runs out the rollout stops where it stands, every episode keeps
    the (valid, applicable) migrations it executed so far, and the unfinished
    ones come back with ``partial=True``.  Steps in flight complete, so the
    call overshoots the budget by at most one stacked forward, and a greedy
    deadline-bounded plan is a prefix of the unbounded one.
    """
    objective = objective or FragmentRateObjective()
    # Penalty-mode policies sample without masks, so the environment must absorb
    # illegal actions instead of raising (the §5.4 Penalty ablation).
    illegal_penalty = ILLEGAL_ACTION_PENALTY if policy.config.action_mode == "penalty" else None
    joint_mode = policy.config.action_mode == "full_joint"
    slots = max_active if max_active is not None else len(states)

    start = time.perf_counter()
    envs: List[Optional[VMRescheduleEnv]] = [None] * len(states)
    observations: List = [None] * len(states)
    rewards = [0.0] * len(states)
    # Limit-0 rows are trivially complete; pop() admits the others in order.
    finished = {index for index, limit in enumerate(migration_limits) if limit <= 0}
    waiting = [index for index in reversed(range(len(states))) if index not in finished]
    active: List[int] = []
    while active or waiting:
        if deadline_s is not None and time.perf_counter() - start >= deadline_s:
            break
        while waiting and len(active) < slots:
            index = waiting.pop()
            config = ConstraintConfig(migration_limit=migration_limits[index])
            envs[index] = VMRescheduleEnv(
                states[index], config, objective=objective, illegal_action_penalty=illegal_penalty
            )
            observations[index] = envs[index].reset()
            active.append(index)
        # Episodes whose observation has no movable VM end immediately.
        finished.update(index for index in active if not observations[index].vm_mask.any())
        active = [index for index in active if index not in finished]
        if not active:
            continue
        with no_grad():
            outputs = policy.act_batch(
                [observations[i] for i in active],
                [envs[i].pm_action_mask for i in active],
                rng=[rngs[i] for i in active],
                greedy=greedy,
                joint_masks=[envs[i].joint_action_mask() for i in active] if joint_mode else None,
                vm_threshold_quantile=vm_quantile,
                pm_threshold_quantile=pm_quantile,
                compute_stats=False,
                step_cache=step_cache,
            )
        for index, output in zip(active, outputs):
            observations[index], reward, done, _ = envs[index].step(output.action)
            rewards[index] += reward
            if done:
                finished.add(index)
        active = [index for index in active if index not in finished]

    results: List[TrajectoryResult] = []
    for index, env in enumerate(envs):
        partial = deadline_s is not None and index not in finished
        if env is None:
            plan, final, steps = MigrationPlan(), objective.episode_metric(states[index]), 0
        else:
            plan = env.executed_plan().truncated(migration_limits[index])
            final, steps = env.episode_metric(), env.steps_taken
        results.append(TrajectoryResult(plan, final, rewards[index], greedy, partial, steps))
    return results


def risk_seeking_evaluate(
    policy: TwoStagePolicy,
    state: ClusterState,
    migration_limit: int,
    config: Optional[RiskSeekingConfig] = None,
    objective: Optional[Objective] = None,
    seed: int = 0,
) -> RiskSeekingOutcome:
    """Sample multiple trajectories and keep the one with the best objective.

    The first trajectory is greedy (argmax actions), matching how a
    deployment would fall back to the deterministic policy if only one
    trajectory could be afforded.  The sampled trajectories run
    as rows of ONE stacked :func:`rollout_batch` call, and row ``k`` draws
    from ``np.random.default_rng([seed, k])``: a trajectory depends on
    neither ``num_trajectories`` nor its batch neighbours, so the first
    rows of a larger ``num_trajectories`` are exactly a smaller one's.
    """
    config = config or RiskSeekingConfig()
    rngs = [np.random.default_rng([seed, k]) for k in range(config.num_trajectories)]

    def rollout(rows: List[np.random.Generator], greedy: bool) -> List[TrajectoryResult]:
        thresholded = config.use_thresholding and not greedy
        return rollout_batch(
            policy,
            [state] * len(rows),
            [migration_limit] * len(rows),
            rows,
            objective=objective,
            greedy=greedy,
            vm_quantile=config.vm_quantile if thresholded else None,
            pm_quantile=config.pm_quantile if thresholded else None,
        )

    trajectories = rollout(rngs[:1], True) + rollout(rngs[1:], False)
    best = min(trajectories, key=lambda t: t.final_objective)
    return RiskSeekingOutcome(best=best, trajectories=trajectories)


def vm_selection_probability_histogram(
    policy: TwoStagePolicy,
    states: List[ClusterState],
    migration_limit: int,
    seed: int = 0,
    bins: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Distribution of per-VM selection probabilities over rollouts (Fig. 11)."""
    rng = np.random.default_rng(seed)
    probabilities: List[float] = []
    for state in states:
        env = VMRescheduleEnv(state, ConstraintConfig(migration_limit=migration_limit))
        observation = env.reset()
        done = False
        while not done:
            if not observation.vm_mask.any():
                break
            with no_grad():
                output = policy.act(observation, pm_mask_fn=env.pm_action_mask, rng=rng)
            probabilities.extend(output.vm_probs.tolist())
            observation, _, done, _ = env.step(output.action)
    probabilities = np.asarray(probabilities)
    if bins is None:
        bins = np.logspace(-6, 0, 25)
    counts, edges = np.histogram(probabilities, bins=bins)
    return {"counts": counts, "bin_edges": edges, "probabilities": probabilities}
