"""Rescheduling objectives and their dense reward shaping.

The paper optimizes several objectives with the same agent:

* **Fragment-rate minimization** (the default, §3.1): dense reward equal to the
  drop in rescaled fragment size on the source and destination PMs (Eq. 8–9).
* **Migration-number minimization under an FR goal** (§5.5.1): the same dense
  term plus a −1 penalty per step while the goal is unmet and a +10 bonus when
  the goal is reached (Eq. 10–11); the episode ends at the goal.
* **Mixed objectives** (§5.5.2/§5.5.3, Eq. 12): a convex combination of the
  16-core FR with either the 64-core FR or the 64-GB memory FR, with the dense
  reward generalized to the weighted fragment score.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import ClusterState
from ..cluster.fragmentation import REWARD_SCALE, fragment_arrays


def pm_free(state: ClusterState, pm_id: int) -> tuple:
    """A PM's ``(2,)`` rows of the SoA view's free CPU and free memory."""
    soa = state.arrays()
    row = soa.pm_row[pm_id]
    return soa.numa_free_cpu[row], soa.numa_free_mem[row]


class Objective:
    """Interface every rescheduling objective implements."""

    name = "objective"

    def pm_score(self, state: ClusterState, pm_id: int) -> float:
        """Rescaled per-PM fragment score S_i (Eq. 8) under this objective."""
        raise NotImplementedError

    def episode_metric(self, state: ClusterState) -> float:
        """The cluster-level quantity this objective minimizes."""
        raise NotImplementedError

    def step_reward(
        self,
        before_source: float,
        after_source: float,
        before_dest: float,
        after_dest: float,
        state: ClusterState,
    ) -> float:
        """Dense reward for one migration (Eq. 9 by default)."""
        return (before_source - after_source) + (before_dest - after_dest)

    def goal_reached(self, state: ClusterState) -> bool:
        """Whether the episode may terminate early because the goal is met."""
        return False


@dataclass
class FragmentRateObjective(Objective):
    """Minimize the X-core fragment rate (the paper's primary objective)."""

    x_cores: int = 16
    reward_scale: float = REWARD_SCALE

    name = "fragment_rate"

    def pm_score(self, state: ClusterState, pm_id: int) -> float:
        return fragment_arrays(pm_free(state, pm_id)[0], self.x_cores) / self.reward_scale

    def episode_metric(self, state: ClusterState) -> float:
        return state.fragment_rate(self.x_cores)


@dataclass
class MigrationMinimizationObjective(Objective):
    """Minimize migrations needed to reach an FR goal (Eq. 10–11)."""

    fr_goal: float = 0.35
    x_cores: int = 16
    reward_scale: float = REWARD_SCALE
    step_penalty: float = -1.0
    goal_bonus: float = 10.0

    name = "min_migrations"

    def __post_init__(self) -> None:
        if not 0.0 <= self.fr_goal <= 1.0:
            raise ValueError("fr_goal must be in [0, 1]")

    def pm_score(self, state: ClusterState, pm_id: int) -> float:
        return fragment_arrays(pm_free(state, pm_id)[0], self.x_cores) / self.reward_scale

    def episode_metric(self, state: ClusterState) -> float:
        return state.fragment_rate(self.x_cores)

    def step_reward(self, before_source, after_source, before_dest, after_dest, state) -> float:
        fragment_term = super().step_reward(before_source, after_source, before_dest, after_dest, state)
        if self.goal_reached(state):
            return self.goal_bonus + fragment_term
        return self.step_penalty + fragment_term

    def goal_reached(self, state: ClusterState) -> bool:
        return self.episode_metric(state) <= self.fr_goal


@dataclass
class MixedFragmentObjective(Objective):
    """Convex combination of the 16-core FR with the 64-core FR (Eq. 12, §5.5.2).

    ``weight`` is the paper's λ: 0 optimizes FR16 only, 1 optimizes FR64 only.
    """

    weight: float = 0.5
    primary_cores: int = 16
    secondary_cores: int = 64
    reward_scale: float = REWARD_SCALE

    name = "mixed_fr16_fr64"

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight (lambda) must be in [0, 1]")

    def pm_score(self, state: ClusterState, pm_id: int) -> float:
        free_cpu, _ = pm_free(state, pm_id)
        primary = fragment_arrays(free_cpu, self.primary_cores)
        secondary = fragment_arrays(free_cpu, self.secondary_cores)
        return ((1.0 - self.weight) * primary + self.weight * secondary) / self.reward_scale

    def episode_metric(self, state: ClusterState) -> float:
        primary = state.fragment_rate(self.primary_cores)
        secondary = state.fragment_rate(self.secondary_cores)
        return (1.0 - self.weight) * primary + self.weight * secondary

    def component_metrics(self, state: ClusterState) -> dict:
        return {
            f"fr{self.primary_cores}": state.fragment_rate(self.primary_cores),
            f"fr{self.secondary_cores}": state.fragment_rate(self.secondary_cores),
        }


@dataclass
class MixedResourceObjective(Objective):
    """Convex combination of the 16-core CPU FR with the 64-GB memory FR (§5.5.3)."""

    weight: float = 0.5
    cpu_cores: int = 16
    memory_gb: float = 64.0
    reward_scale: float = REWARD_SCALE
    memory_reward_scale: float = 256.0

    name = "mixed_fr16_mem64"

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight (lambda) must be in [0, 1]")

    def pm_score(self, state: ClusterState, pm_id: int) -> float:
        free_cpu, free_mem = pm_free(state, pm_id)
        cpu_term = fragment_arrays(free_cpu, self.cpu_cores) / self.reward_scale
        mem_term = fragment_arrays(free_mem, self.memory_gb) / self.memory_reward_scale
        return (1.0 - self.weight) * cpu_term + self.weight * mem_term

    def episode_metric(self, state: ClusterState) -> float:
        cpu_fr = state.fragment_rate(self.cpu_cores)
        mem_fr = state.memory_fragment_rate(self.memory_gb)
        return (1.0 - self.weight) * cpu_fr + self.weight * mem_fr

    def component_metrics(self, state: ClusterState) -> dict:
        return {
            f"fr{self.cpu_cores}": state.fragment_rate(self.cpu_cores),
            f"mem{int(self.memory_gb)}": state.memory_fragment_rate(self.memory_gb),
        }


#: Name → class registry shared by benchmarks, config files and the serving
#: layer (``PlanRequest.objective`` is resolved through :func:`make_objective`).
OBJECTIVE_REGISTRY = {
    "fragment_rate": FragmentRateObjective,
    "min_migrations": MigrationMinimizationObjective,
    "mixed_fr16_fr64": MixedFragmentObjective,
    "mixed_fr16_mem64": MixedResourceObjective,
}


def available_objectives() -> list:
    """Sorted names accepted by :func:`make_objective`."""
    return sorted(OBJECTIVE_REGISTRY)


def make_objective(name: str, **kwargs) -> Objective:
    """Factory used by benchmark scripts, config files and the serve schemas.

    Raises ``KeyError`` for unknown names and ``TypeError``/``ValueError`` for
    invalid parameters, which the service layer maps to ``PlanError`` codes.
    """
    try:
        factory = OBJECTIVE_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown objective {name!r}; known: {available_objectives()}")
    return factory(**kwargs)
