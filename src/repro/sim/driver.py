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

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..cluster import apply_plan
from ..env.objectives import make_objective
from ..serve.schemas import PlanError, PlanRequest, PlanResponse

Reply = Union[PlanResponse, PlanError]
from .engine import LivingCluster
from .metrics import DriftConfig, DriftMonitor, invalidation_rate, steady_state_mean


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
    drift: DriftConfig = field(default_factory=DriftConfig)
    #: Concurrent plan requests offered per round (the applied plan's request
    #: included).  Above 1, the backend must be concurrency-safe — a
    #: :class:`~repro.serve.fleet.ReplicaFleet` or an HTTP client, never a
    #: bare ``service.handle``.
    load_base: int = 1
    #: Extra concurrent requests per churn event in the round's lead-up
    #: window: flash-crowd churn becomes a planning load spike, which is what
    #: drives fleet autoscaling and brownout in ``repro simulate --autoscale``.
    load_per_event: float = 0.0
    #: Hard cap on one round's offered load.
    load_max: int = 32

    def __post_init__(self) -> None:
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
        if self.load_base < 1:
            raise ValueError("load_base must be >= 1")
        if self.load_per_event < 0:
            raise ValueError("load_per_event must not be negative")
        if self.load_max < self.load_base:
            raise ValueError("load_max must be >= load_base")


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
    #: Concurrent requests offered this round (derived from event counts —
    #: deterministic).  How the extra ones fared is timing-dependent against
    #: a real fleet, so the outcome counters live in :meth:`to_dict` only.
    offered: int = 1
    load_ok: int = 0
    load_shed: int = 0
    load_failed: int = 0

    def to_dict(self) -> Dict:
        payload = self.deterministic_dict()
        payload["planner_ms"] = self.planner_ms
        payload["load_ok"] = self.load_ok
        payload["load_shed"] = self.load_shed
        payload["load_failed"] = self.load_failed
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
            "offered": self.offered,
            "events_before": {k: v for k, v in self.events_before.items() if v},
            "events_during": {k: v for k, v in self.events_during.items() if v},
        }


@dataclass
class SimulationReport:
    """Full outcome of a run: per-round records plus aggregates."""

    planner: str
    rounds: List[RoundRecord]
    engine_stats: Dict[str, int]
    drift_events: List[Dict]
    final_objective: float
    steady_state_objective: float
    invalidation: float
    failed_rounds: int
    horizon_s: float
    #: Supervision counters from the planning backend (restarts, rolls,
    #: sheds, retries, autoscale events, brownout transitions) — empty when
    #: the backend exposes none.  Part of :meth:`deterministic_dict`: the
    #: default in-process backend's counters are seed-reproducible, and churn
    #: runs against a fleet record control-plane behavior alongside plan
    #: quality.
    control_plane: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "planner": self.planner,
            "horizon_s": self.horizon_s,
            "num_rounds": len(self.rounds),
            "failed_rounds": self.failed_rounds,
            "final_objective": self.final_objective,
            "steady_state_objective": self.steady_state_objective,
            "invalidation_rate": self.invalidation,
            "offered_requests": sum(record.offered for record in self.rounds),
            "engine_stats": dict(self.engine_stats),
            "drift_events": list(self.drift_events),
            "control_plane": dict(self.control_plane),
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
        control_plane_stats: Optional[Callable[[], Dict]] = None,
    ) -> None:
        self.cluster = cluster
        self.plan_fn = plan_fn
        self.config = config if config is not None else SimulationConfig()
        self.on_round = on_round
        # Sampled once at the end of the run into the report, e.g.
        # ``fleet.control_plane_stats`` when simulating against a live fleet.
        self.control_plane_stats = control_plane_stats
        self.drift = DriftMonitor(self.config.drift)
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
            self.drift.observe(record.objective_after)
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
        offered = config.load_base
        if config.load_per_event > 0:
            total_events = sum(events_before.values())
            offered = min(
                offered + int(config.load_per_event * total_events), config.load_max
            )
        # The extra offered requests run concurrently with the primary one —
        # realistic pressure for the fleet's autoscaler/brownout controllers.
        # Only the primary reply steers the simulation; the others are load.
        ghost_replies: List[Optional[Reply]] = [None] * (offered - 1)
        threads = []
        for slot in range(offered - 1):
            ghost = dataclasses.replace(request, request_id="")  # fresh id

            def _issue(slot=slot, ghost=ghost):
                try:
                    ghost_replies[slot] = self.plan_fn(ghost)
                except Exception as exc:  # ghost failures are load outcomes
                    ghost_replies[slot] = PlanError(
                        ghost.request_id, "internal_error", str(exc)
                    )

            thread = threading.Thread(
                target=_issue, name=f"sim-load-{index}-{slot}", daemon=True
            )
            threads.append(thread)
            thread.start()
        reply = self.plan_fn(request)
        for thread in threads:
            thread.join()
        load_ok = sum(1 for r in ghost_replies if r is not None and r.ok)
        load_shed = sum(
            1
            for r in ghost_replies
            if r is not None and not r.ok and r.code == "service_unavailable"
        )
        load_failed = (offered - 1) - load_ok - load_shed
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
                offered=offered,
                load_ok=load_ok,
                load_shed=load_shed,
                load_failed=load_failed,
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
            offered=offered,
            load_ok=load_ok,
            load_shed=load_shed,
            load_failed=load_failed,
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
            drift_events=[event.to_dict() for event in self.drift.events],
            final_objective=objective.episode_metric(self.cluster.state),
            steady_state_objective=steady_state_mean(
                series, config.steady_state_fraction
            ),
            invalidation=invalidation_rate(planned, invalidated),
            failed_rounds=sum(1 for record in self.rounds if not record.ok),
            horizon_s=config.horizon_s,
            control_plane=(
                dict(self.control_plane_stats())
                if self.control_plane_stats is not None
                else {}
            ),
        )
