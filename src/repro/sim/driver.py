"""Online rescheduling over a living cluster.

:class:`OnlineRescheduler` interleaves churn with periodic replanning: every
``replan_every_s`` of simulated time it snapshots the live cluster, asks a
planning backend for a migration plan, lets the cluster keep churning for
``plan_delay_s`` (planner latency + migration execution time), then applies
the plan onto the *moved-on* state.  Migrations broken by the intervening
churn — the VM exited, the destination PM drained away or filled up — are
invalidated rather than forced (``apply_plan(skip_infeasible=True)``), and
their count per round is the plan-invalidation metric.

The backend is any ``Callable[[PlanRequest], Reply]``:

* ``service.handle`` for an in-process :class:`ReschedulingService` (the
  default; each round's RL plan runs on a fresh StepCache, like every
  service request),
* ``client.plan`` for a remote fleet via :class:`PlanningClient` — retries
  and replica failover come for free, and a round whose reply is a
  :class:`PlanError` is recorded as failed and *skipped*, never raised, so a
  replica dying mid-simulation degrades the run instead of aborting it.

Time is simulated throughout — the loop never sleeps and never reads a wall
clock for control flow — so one ``(initial state, trace, seed, config)``
tuple always yields the identical sequence of rounds, plans and metrics.
Wall-clock planner latency is still *recorded* (``planner_ms``) for
reporting, but nothing branches on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..cluster import apply_plan
from ..env.objectives import make_objective
from ..serve.schemas import PlanError, PlanRequest, PlanResponse

Reply = Union[PlanResponse, PlanError]
from .engine import LivingCluster
from .metrics import invalidation_rate, steady_state_mean


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one online-rescheduling run (all simulated-time)."""

    planner: str = "vmr2l"
    migration_limit: int = 8
    objective: str = "fragment_rate"
    greedy: bool = True
    #: Simulated seconds between replanning rounds.
    replan_every_s: float = 1800.0
    #: Simulated planner latency + migration execution time: churn that lands
    #: in this window races the plan and can invalidate its migrations.
    plan_delay_s: float = 60.0
    horizon_s: float = 86400.0
    seed: int = 0
    #: Per-request soft deadline forwarded to the planning backend.
    deadline_ms: Optional[float] = None
    #: Cap on replanning rounds (smoke runs); ``None`` = horizon decides.
    max_rounds: Optional[int] = None
    #: Trailing fraction of rounds that counts as steady state.
    steady_state_fraction: float = 0.5

    def __post_init__(self) -> None:
        for name in ("replan_every_s", "plan_delay_s", "horizon_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.replan_every_s <= 0:
            raise ValueError("replan_every_s must be positive")
        if self.plan_delay_s < 0:
            raise ValueError("plan_delay_s must not be negative")
        if self.plan_delay_s >= self.replan_every_s:
            raise ValueError("plan_delay_s must be smaller than replan_every_s")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.migration_limit < 0:
            raise ValueError("migration_limit must not be negative")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1 when set")
        if not 0.0 < self.steady_state_fraction <= 1.0:
            raise ValueError("steady_state_fraction must be in (0, 1]")


@dataclass
class RoundRecord:
    """One replanning round, start to applied plan."""

    round_index: int
    time_s: float
    ok: bool
    objective_before: float
    objective_after: float
    planned: int = 0
    applied: int = 0
    invalidated: int = 0
    error_code: Optional[str] = None
    #: Wall-clock planner latency (reporting only; excluded from determinism
    #: comparisons — see :meth:`deterministic_dict`).
    planner_ms: float = 0.0
    events_before: Dict[str, int] = field(default_factory=dict)
    events_during: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        payload = self.deterministic_dict()
        payload["planner_ms"] = self.planner_ms
        return payload

    def deterministic_dict(self) -> Dict:
        """Everything about the round that must be seed-reproducible."""
        return {
            "round_index": self.round_index,
            "time_s": self.time_s,
            "ok": self.ok,
            "objective_before": self.objective_before,
            "objective_after": self.objective_after,
            "planned": self.planned,
            "applied": self.applied,
            "invalidated": self.invalidated,
            "error_code": self.error_code,
            "events_before": {k: v for k, v in self.events_before.items() if v},
            "events_during": {k: v for k, v in self.events_during.items() if v},
        }


@dataclass
class SimulationReport:
    """Full outcome of a run: per-round records plus aggregates."""

    planner: str
    rounds: List[RoundRecord]
    engine_stats: Dict[str, int]
    final_objective: float
    steady_state_objective: float
    invalidation: float
    failed_rounds: int
    horizon_s: float

    def to_dict(self) -> Dict:
        return {
            "planner": self.planner,
            "horizon_s": self.horizon_s,
            "num_rounds": len(self.rounds),
            "failed_rounds": self.failed_rounds,
            "final_objective": self.final_objective,
            "steady_state_objective": self.steady_state_objective,
            "invalidation_rate": self.invalidation,
            "engine_stats": dict(self.engine_stats),
            "rounds": [record.to_dict() for record in self.rounds],
        }

    def deterministic_dict(self) -> Dict:
        """The seed-reproducible projection (no wall-clock fields)."""
        payload = self.to_dict()
        payload["rounds"] = [record.deterministic_dict() for record in self.rounds]
        return payload


class OnlineRescheduler:
    """Drive periodic replanning over a :class:`LivingCluster`.

    ``on_round`` (if given) fires after every round with the fresh
    :class:`RoundRecord` — the hook point chaos tests use to kill a replica
    mid-run and the natural place to attach operational side effects.
    """

    def __init__(
        self,
        cluster: LivingCluster,
        plan_fn: Callable[[PlanRequest], Reply],
        config: Optional[SimulationConfig] = None,
        on_round: Optional[Callable[[RoundRecord], None]] = None,
    ) -> None:
        self.cluster = cluster
        self.plan_fn = plan_fn
        self.config = config if config is not None else SimulationConfig()
        self.on_round = on_round
        self.rounds: List[RoundRecord] = []

    def run(self) -> SimulationReport:
        """Advance simulated time to the horizon, replanning each period."""
        config = self.config
        objective = make_objective(config.objective)
        num_rounds = int(config.horizon_s // config.replan_every_s)
        if config.max_rounds is not None:
            num_rounds = min(num_rounds, config.max_rounds)
        for index in range(num_rounds):
            record = self._run_round(index, objective)
            self.rounds.append(record)
            if self.on_round is not None:
                self.on_round(record)
        # Drain churn scheduled after the last replanning round.
        self.cluster.advance(max(config.horizon_s, self.cluster.now_s))
        return self._report(objective)

    # ------------------------------------------------------------------ #
    def _run_round(self, index: int, objective) -> RoundRecord:
        config = self.config
        cluster = self.cluster
        round_time = (index + 1) * config.replan_every_s
        events_before = cluster.advance(round_time)
        objective_before = objective.episode_metric(cluster.state)
        request = PlanRequest.from_state(
            cluster.state,
            planner=config.planner,
            migration_limit=config.migration_limit,
            objective=config.objective,
            greedy=config.greedy,
            seed=config.seed,
            deadline_ms=config.deadline_ms,
        )
        reply = self.plan_fn(request)
        planner_ms = float(reply.metrics.get("latency_ms", 0.0)) if reply.ok else 0.0
        # The plan "executes" while the cluster keeps churning.
        events_during = cluster.advance(round_time + config.plan_delay_s)
        if not reply.ok:
            return RoundRecord(
                round_index=index,
                time_s=round_time,
                ok=False,
                objective_before=objective_before,
                objective_after=objective.episode_metric(cluster.state),
                error_code=reply.code,
                events_before=events_before,
                events_during=events_during,
            )
        plan = reply.plan()
        _, application = apply_plan(
            cluster.state, plan, skip_infeasible=True, in_place=True
        )
        return RoundRecord(
            round_index=index,
            time_s=round_time,
            ok=True,
            objective_before=objective_before,
            objective_after=objective.episode_metric(cluster.state),
            planned=len(plan),
            applied=len(application.applied),
            invalidated=len(application.skipped),
            planner_ms=planner_ms,
            events_before=events_before,
            events_during=events_during,
        )

    def _report(self, objective) -> SimulationReport:
        config = self.config
        series = [record.objective_after for record in self.rounds]
        planned = sum(record.planned for record in self.rounds)
        invalidated = sum(record.invalidated for record in self.rounds)
        return SimulationReport(
            planner=config.planner,
            rounds=list(self.rounds),
            engine_stats=dict(self.cluster.stats),
            final_objective=objective.episode_metric(self.cluster.state),
            steady_state_objective=steady_state_mean(
                series, config.steady_state_fraction
            ),
            invalidation=invalidation_rate(planned, invalidated),
            failed_rounds=sum(1 for record in self.rounds if not record.ok),
            horizon_s=config.horizon_s,
        )
