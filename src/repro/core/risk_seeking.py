"""Risk-seeking evaluation (§3.4).

VMR has a perfect world model: the simulator can score any candidate migration
trajectory exactly.  Risk-seeking evaluation therefore samples several
trajectories from the stochastic policy, evaluates each one's final objective
with the simulator, and deploys only the best.  Action thresholding masks out
VMs/PMs whose selection probability falls below a quantile so that the sampled
trajectories do not contain obviously sub-optimal actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..cluster import ClusterState, ConstraintConfig, Migration, MigrationPlan
from ..env.objectives import Objective
from ..env.vmr_env import VMRescheduleEnv
from ..nn import no_grad
from .config import RiskSeekingConfig
from .policy import TwoStagePolicy
from .step_cache import StepCache


@dataclass
class TrajectoryResult:
    """One sampled migration trajectory and its simulator-computed objective."""

    plan: MigrationPlan
    final_objective: float
    total_reward: float
    greedy: bool = False


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


def rollout_trajectory(
    policy: TwoStagePolicy,
    state: ClusterState,
    migration_limit: int,
    rng: np.random.Generator,
    objective: Optional[Objective] = None,
    constraint_config: Optional[ConstraintConfig] = None,
    greedy: bool = False,
    vm_quantile: Optional[float] = None,
    pm_quantile: Optional[float] = None,
    step_cache: Optional["StepCache"] = None,
) -> TrajectoryResult:
    """Sample one complete migration trajectory from the policy.

    ``step_cache`` (a :class:`~repro.core.step_cache.StepCache`) makes the
    per-step featurize/encode incremental across the trajectory's steps;
    results are exact w.r.t. the uncached path (cached plans equal
    fresh-recompute plans).  Left off by default so training-time evaluation
    stays bitwise identical to earlier releases.
    """
    config = constraint_config or ConstraintConfig(migration_limit=migration_limit)
    if config.migration_limit != migration_limit:
        config = ConstraintConfig(
            migration_limit=migration_limit,
            honor_anti_affinity=config.honor_anti_affinity,
            allow_source_pm=config.allow_source_pm,
            check_memory=config.check_memory,
        )
    # Penalty-mode policies sample without masks, so the environment must absorb
    # illegal actions instead of raising (the §5.4 Penalty ablation).
    illegal_penalty = -5.0 if policy.config.action_mode == "penalty" else None
    env = VMRescheduleEnv(state, config, objective=objective, illegal_action_penalty=illegal_penalty)
    observation = env.reset()
    total_reward = 0.0
    done = False
    while not done:
        if not observation.vm_mask.any():
            break
        joint_mask = env.joint_action_mask() if policy.config.action_mode == "full_joint" else None
        # Pure sampling — nothing here backpropagates, so run the forward
        # without recording a graph (and in the configured inference_dtype).
        with no_grad():
            output = policy.act(
                observation,
                pm_mask_fn=env.pm_action_mask,
                rng=rng,
                greedy=greedy,
                joint_mask=joint_mask,
                vm_threshold_quantile=vm_quantile,
                pm_threshold_quantile=pm_quantile,
                step_cache=step_cache,
            )
        observation, reward, done, _ = env.step(output.action)
        total_reward += reward
    return TrajectoryResult(
        plan=env.executed_plan(),
        final_objective=env.episode_metric(),
        total_reward=total_reward,
        greedy=greedy,
    )


def risk_seeking_evaluate(
    policy: TwoStagePolicy,
    state: ClusterState,
    migration_limit: int,
    config: Optional[RiskSeekingConfig] = None,
    objective: Optional[Objective] = None,
    constraint_config: Optional[ConstraintConfig] = None,
    seed: int = 0,
) -> RiskSeekingOutcome:
    """Sample multiple trajectories and keep the one with the best objective.

    The first trajectory is greedy (argmax actions) when ``greedy_first`` is
    set, matching how a deployment would fall back to the deterministic policy
    if only one trajectory could be afforded.
    """
    config = config or RiskSeekingConfig()
    rng = np.random.default_rng(seed)
    vm_quantile = config.vm_quantile if config.use_thresholding else None
    pm_quantile = config.pm_quantile if config.use_thresholding else None

    trajectories: List[TrajectoryResult] = []
    for index in range(config.num_trajectories):
        greedy = config.greedy_first and index == 0
        trajectory = rollout_trajectory(
            policy,
            state,
            migration_limit,
            rng,
            objective=objective,
            constraint_config=constraint_config,
            greedy=greedy,
            vm_quantile=None if greedy else vm_quantile,
            pm_quantile=None if greedy else pm_quantile,
        )
        trajectories.append(trajectory)
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
            output = policy.act(observation, pm_mask_fn=env.pm_action_mask, rng=rng)
            probabilities.extend(output.vm_probs.tolist())
            observation, _, done, _ = env.step(output.action)
    probabilities = np.asarray(probabilities)
    if bins is None:
        bins = np.logspace(-6, 0, 25)
    counts, edges = np.histogram(probabilities, bins=bins)
    return {"counts": counts, "bin_edges": edges, "probabilities": probabilities}
