"""Common interface for all rescheduling algorithms.

Every algorithm in :mod:`repro.baselines` (and the VMR2L agent in
:mod:`repro.core.agent`) implements :class:`Rescheduler`: given a mapping
snapshot and a migration number limit, produce a :class:`MigrationPlan` and
report how long inference took.  The shared :func:`evaluate_plan` helper
applies a plan and computes the achieved objective, which is what every
benchmark reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..cluster import ClusterState, MigrationPlan, apply_plan
from ..env.objectives import FragmentRateObjective, Objective


@dataclass
class ReschedulingResult:
    """A plan plus the metadata benchmarks need."""

    plan: MigrationPlan
    inference_seconds: float
    algorithm: str
    info: Dict = field(default_factory=dict)

    @property
    def num_migrations(self) -> int:
        return len(self.plan)


class Rescheduler:
    """Base class: implement :meth:`_compute` and set :attr:`name`."""

    name = "rescheduler"

    def compute_plan(self, state: ClusterState, migration_limit: int) -> ReschedulingResult:
        """Compute a migration plan for ``state`` without mutating it.

        A limit of zero is a well-defined no-op request (the serving layer
        uses it for dry-runs): the result carries an empty plan and zero
        inference time.  Negative limits are rejected.
        """
        if migration_limit < 0:
            raise ValueError("migration_limit must not be negative")
        if migration_limit == 0:
            return ReschedulingResult(
                plan=MigrationPlan(),
                inference_seconds=0.0,
                algorithm=self.name,
                info={"noop": True},
            )
        working = state.copy()
        start = time.perf_counter()
        plan = self._compute(working, migration_limit)
        elapsed = time.perf_counter() - start
        plan = plan.truncated(migration_limit)
        return ReschedulingResult(
            plan=plan,
            inference_seconds=elapsed,
            algorithm=self.name,
            info=self._last_info(),
        )

    def _compute(self, state: ClusterState, migration_limit: int) -> MigrationPlan:
        raise NotImplementedError

    def _last_info(self) -> Dict:
        """Additional diagnostics recorded by the last ``_compute`` call."""
        return {}


@dataclass
class PlanEvaluation:
    """Outcome of applying a plan to a snapshot."""

    algorithm: str
    initial_objective: float
    final_objective: float
    num_migrations: int
    num_applied: int
    num_skipped: int
    inference_seconds: float


def evaluate_plan(
    state: ClusterState,
    result: ReschedulingResult,
    objective: Optional[Objective] = None,
) -> PlanEvaluation:
    """Apply ``result.plan`` to a copy of ``state`` and measure the objective."""
    objective = objective or FragmentRateObjective()
    initial = objective.episode_metric(state)
    final_state, application = apply_plan(state, result.plan, skip_infeasible=True)
    return PlanEvaluation(
        algorithm=result.algorithm,
        initial_objective=initial,
        final_objective=objective.episode_metric(final_state),
        num_migrations=result.num_migrations,
        num_applied=application.num_applied,
        num_skipped=len(application.skipped),
        inference_seconds=result.inference_seconds,
    )
