"""The VM rescheduling simulator (Gym-style environment).

One episode corresponds to one VMR request (§3.1): it starts from a mapping
snapshot and runs for at most MNL steps.  At each step the agent migrates a
single VM from its source PM to a destination PM; the environment computes the
next state deterministically and returns the dense reward of Eq. 8–9 (or the
active objective's variant).

The action is the 2-tuple ``(vm_index, pm_index)`` over the *sorted* VM and PM
id lists exposed by the observation.  The environment also exposes the
stage-wise feasibility masks used by the two-stage framework (§3.2):
``vm_action_mask()`` for stage 1 and ``pm_action_mask(vm_index)`` for stage 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..cluster import ClusterState, ConstraintChecker, ConstraintConfig, Migration, MigrationPlan
from .objectives import FragmentRateObjective, Objective
from .observation import Observation, ObservationBuilder


#: The reward for an illegal action in the §5.4 Penalty ablation, whose
#: policies sample without masks (``ModelConfig.action_mode == "penalty"``).
ILLEGAL_ACTION_PENALTY = -5.0


@dataclass
class StepRecord:
    """Bookkeeping for one executed migration step."""

    vm_id: int
    source_pm_id: int
    dest_pm_id: int
    reward: float
    fragment_rate: float
    legal: bool = True


class VMRescheduleEnv:
    """Deterministic VM rescheduling environment.

    Parameters
    ----------
    initial_state:
        The mapping snapshot the episode starts from.  ``reset`` restores this
        state (or a newly provided one) exactly — the environment never mutates
        the snapshot it was given.
    constraint_config:
        The task's MNL (Eq. 5); capacity, NUMA and anti-affinity constraints
        (Eq. 2–6, §5.4) always hold.
    objective:
        Reward/metric definition; defaults to 16-core FR minimization.
    illegal_action_penalty:
        If ``None`` (default) an illegal action raises ``ValueError`` — the
        two-stage policy guarantees it never emits one.  If set (the agent
        sets ``ILLEGAL_ACTION_PENALTY`` for penalty-mode policies) illegal
        actions are absorbed: the state does
        not change, the penalty is returned as reward and the step is consumed.
    state_sampler:
        Optional callable returning a fresh :class:`ClusterState` per episode;
        used for training across many mappings.
    """

    metadata = {"render_modes": ["ansi"]}

    def __init__(
        self,
        initial_state: Optional[ClusterState] = None,
        constraint_config: Optional[ConstraintConfig] = None,
        objective: Optional[Objective] = None,
        illegal_action_penalty: Optional[float] = None,
        state_sampler: Optional[Callable[[], ClusterState]] = None,
        seed: Optional[int] = None,
    ) -> None:
        if initial_state is None and state_sampler is None:
            raise ValueError("provide an initial_state or a state_sampler")
        self._template_state = initial_state.copy() if initial_state is not None else None
        self._state_sampler = state_sampler
        self.constraint_config = constraint_config or ConstraintConfig()
        self.checker = ConstraintChecker(self.constraint_config)
        self.objective = objective or FragmentRateObjective()
        self.illegal_action_penalty = illegal_action_penalty
        self.builder = ObservationBuilder(self.checker)
        self.rng = np.random.default_rng(seed)

        self.state: Optional[ClusterState] = None
        self.steps_taken = 0
        self.history: List[StepRecord] = []
        self._initial_metric: Optional[float] = None
        self._done = True

        if initial_state is None:
            # Samplers may draw from a shared generator, so this first draw
            # is part of every episode stream that follows.
            self._template_state = state_sampler().copy()

    # ------------------------------------------------------------------ #
    # Episode control
    # ------------------------------------------------------------------ #
    def seed(self, seed: Optional[int] = None) -> None:
        """Reseed the environment's random generator.

        The simulator itself is deterministic; the generator feeds optional
        stochastic components (e.g. samplers that consult ``env.rng``).
        """
        self.rng = np.random.default_rng(seed)

    def reset(self, state: Optional[ClusterState] = None) -> Observation:
        """Start a new episode; returns the initial observation."""
        if state is not None:
            self._template_state = state.copy()
        elif self._state_sampler is not None:
            self._template_state = self._state_sampler().copy()
        if self._template_state is None:
            raise RuntimeError("no initial state available")
        self.state = self._template_state.copy()
        self.steps_taken = 0
        self.history = []
        self._initial_metric = self.objective.episode_metric(self.state)
        self._done = False
        return self._observation()

    def step(self, action: Tuple[int, int]):
        """Execute one migration; returns ``(observation, reward, done, info)``."""
        if self._done or self.state is None:
            raise RuntimeError("call reset() before step()")
        vm_index, pm_index = int(action[0]), int(action[1])
        vm_ids = self.state.sorted_vm_ids()
        pm_ids = self.state.sorted_pm_ids()
        if not 0 <= vm_index < len(vm_ids):
            raise IndexError(f"vm_index {vm_index} out of range")
        if not 0 <= pm_index < len(pm_ids):
            raise IndexError(f"pm_index {pm_index} out of range")
        vm_id = vm_ids[vm_index]
        dest_pm_id = pm_ids[pm_index]
        soa = self.state.arrays()
        source_row = soa.vm_pm[vm_index]
        source_pm_id = int(soa.pm_ids[source_row]) if source_row >= 0 else -1

        legal = self.checker.migration_is_feasible(self.state, vm_id, dest_pm_id)
        if not legal:
            if self.illegal_action_penalty is None:
                raise ValueError(
                    f"illegal action: VM {vm_id} cannot migrate to PM {dest_pm_id}"
                )
            reward = float(self.illegal_action_penalty)
            self.steps_taken += 1
            record = StepRecord(
                vm_id=vm_id,
                source_pm_id=source_pm_id,
                dest_pm_id=dest_pm_id,
                reward=reward,
                fragment_rate=self.objective.episode_metric(self.state),
                legal=False,
            )
            self.history.append(record)
            self._done = self._should_terminate()
            return self._observation(), reward, self._done, self._info(record)

        before_source = self.objective.pm_score(self.state, source_pm_id)
        before_dest = self.objective.pm_score(self.state, dest_pm_id)
        self.state.migrate_vm(vm_id, dest_pm_id)
        after_source = self.objective.pm_score(self.state, source_pm_id)
        after_dest = self.objective.pm_score(self.state, dest_pm_id)
        reward = self.objective.step_reward(
            before_source, after_source, before_dest, after_dest, self.state
        )
        self.steps_taken += 1
        record = StepRecord(
            vm_id=vm_id,
            source_pm_id=source_pm_id,
            dest_pm_id=dest_pm_id,
            reward=reward,
            fragment_rate=self.objective.episode_metric(self.state),
        )
        self.history.append(record)
        self._done = self._should_terminate()
        return self._observation(), float(reward), self._done, self._info(record)

    # ------------------------------------------------------------------ #
    # Masks for the two-stage framework
    # ------------------------------------------------------------------ #
    def vm_action_mask(self) -> np.ndarray:
        """Stage-1 mask: VMs that have at least one feasible destination."""
        self._require_state()
        return self.checker.movable_vm_mask(self.state)

    def pm_action_mask(self, vm_index: int) -> np.ndarray:
        """Stage-2 mask: PMs able to host the VM at ``vm_index``."""
        self._require_state()
        vm_ids = self.state.sorted_vm_ids()
        if not 0 <= vm_index < len(vm_ids):
            raise IndexError(f"vm_index {vm_index} out of range")
        return self.checker.destination_mask(self.state, vm_ids[vm_index])

    def joint_action_mask(self) -> np.ndarray:
        """Full (num_vms, num_pms) legality matrix (used by the Full-Mask ablation)."""
        self._require_state()
        return self.checker.feasibility_matrix(self.state)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def fragment_rate(self) -> float:
        self._require_state()
        return self.state.fragment_rate()

    def episode_metric(self) -> float:
        self._require_state()
        return self.objective.episode_metric(self.state)

    def migrations_left(self) -> int:
        return max(self.constraint_config.migration_limit - self.steps_taken, 0)

    def executed_plan(self) -> MigrationPlan:
        """The legal migrations executed so far, as a plan."""
        return MigrationPlan(
            [Migration(vm_id=r.vm_id, dest_pm_id=r.dest_pm_id) for r in self.history if r.legal]
        )

    def render(self) -> str:
        """ANSI rendering of the current cluster occupancy."""
        self._require_state()
        lines = [f"step={self.steps_taken} FR={self.fragment_rate():.4f}"]
        pms = self.state.pms
        for pm in (pms[pm_id] for pm_id in self.state.sorted_pm_ids()):
            numa_bits = " | ".join(
                f"numa{numa.numa_id}: used={numa.used_cpu:.0f}/{numa.cpu_capacity:.0f}c"
                for numa in pm.numas
            )
            lines.append(f"PM {pm.pm_id:4d}: {numa_bits} vms={len(pm.vm_ids)}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    def _observation(self) -> Observation:
        self._require_state()
        return self.builder.build(self.state, self.migrations_left())

    def _should_terminate(self) -> bool:
        if self.steps_taken >= self.constraint_config.migration_limit:
            return True
        if self.objective.goal_reached(self.state):
            return True
        return not bool(self.vm_action_mask().any())

    def _info(self, record: StepRecord) -> Dict:
        info = {
            "fragment_rate": self.state.fragment_rate(),
            "objective": self.objective.episode_metric(self.state),
            "initial_objective": self._initial_metric,
            "steps_taken": self.steps_taken,
            "migrations_left": self.migrations_left(),
            "last_step": record,
        }
        component_metrics = getattr(self.objective, "component_metrics", None)
        if callable(component_metrics):
            info["components"] = component_metrics(self.state)
        return info

    def _require_state(self) -> None:
        if self.state is None:
            raise RuntimeError("environment has no active episode; call reset()")
