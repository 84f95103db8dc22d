"""The replica fleet's control plane as one pure state machine.

:class:`FleetControl` makes every decision of
:class:`~repro.serve.fleet.ReplicaFleet` — admission and shedding,
least-loaded routing, retries, failure detection, respawn backoff,
drain-then-stop, autoscaling and brownout — and performs none of the I/O.
It has no threads, clock, processes or pipes.  Each input is one method call
that takes the current time as ``now``: ``start``, ``submit``, ``ready``,
``heartbeat``, ``reply``, ``lost`` (pipe EOF, a fatal report, a failed send,
a dead process), ``stopped``, ``tick`` (the supervisor's scan),
``set_target``, ``drain`` and ``shutdown``.  Each call returns the I/O to
perform as plain data: :class:`Spawn`, :class:`Stop`, :class:`Send` (its
request already carries the brownout rungs' edits) and :class:`Resolve`.  The
process shell calls them under one lock and applies what they return, so
every interleaving can be enumerated: ``tests/serve/test_fleet_model.py``
checks the fleet's contracts over all of them at small scope.

A slot's ``generation`` is bumped on each spawn.  Every process signal
carries the generation it was spawned with, and a signal from an older one
— a replaced process's late EOF, ready or reply — is dropped, so it can never
fail, ready or answer for its successor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..supervise import RetryPolicy
from .autoscale import (
    Autoscaler,
    AutoscaleConfig,
    BrownoutConfig,
    BrownoutController,
    FleetLoad,
)
from .schemas import PlanError, response_from_dict


@dataclass
class FleetConfig:
    """Sizing, health-check, retry and restart knobs of the fleet."""

    #: Number of replica worker processes.
    num_replicas: int = 2
    #: ``fork`` / ``spawn``; ``None`` picks ``spawn`` — replicas build their
    #: own service threads, and the supervisor itself is multi-threaded when
    #: it respawns, where ``fork`` is perilous.
    start_method: Optional[str] = None
    #: How often each replica reports load.
    heartbeat_interval_s: float = 0.1
    #: A ready replica silent this long is declared failed.  Generous by
    #: default: on a starved CI core, heartbeat threads can lag seconds.
    heartbeat_timeout_s: float = 5.0
    #: How long a (re)spawned replica may take to report ready.
    ready_timeout_s: float = 120.0
    #: An assigned request older than this marks its replica hung: the
    #: replica is killed and restarted, the request retried elsewhere.  This
    #: is the *only* hang detector — a hung planner keeps heartbeating.
    request_timeout_s: float = 60.0
    #: Bound on how long an admitted request may sit unassigned (e.g. the
    #: whole fleet down, respawns pending) before it fails stably.
    queue_wait_timeout_s: float = 60.0
    #: Supervisor scan cadence (liveness, hangs, retries, respawns).
    supervise_interval_s: float = 0.05
    #: Restart budget per replica *slot* — one flaky slot cannot starve the
    #: fleet's others.  Past it the slot stays down (the fleet serves on).
    max_replica_restarts: int = 3
    #: Base of the per-slot respawn backoff (:meth:`RetryPolicy.backoff`:
    #: exponential, capped at 2 s, jittered).
    restart_backoff_s: float = 0.05
    #: Request retry budget + backoff (see :class:`RetryPolicy`).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Fleet-level admission bound on outstanding requests; over it, submits
    #: shed immediately with a ``Retry-After`` hint.  ``0`` disables.
    max_inflight: int = 0
    #: Backoff hint attached to fleet-level sheds.
    shed_retry_after_s: float = 0.25
    #: Default budget for :meth:`ReplicaFleet.drain`.
    drain_timeout_s: float = 30.0
    #: Seeds the retry/restart jitter.
    seed: int = 0
    #: Closed-loop replica autoscaling between ``min_replicas`` and
    #: ``max_replicas`` (see :class:`AutoscaleConfig`).  ``None`` keeps the
    #: fleet fixed at ``num_replicas`` — the pre-autoscaler behavior.
    autoscale: Optional[AutoscaleConfig] = None
    #: The brownout ladder (the only one: replicas run none).  L1 and L2 edit
    #: each sent copy, L3 sheds at admission; ``None`` disables.
    brownout: Optional[BrownoutConfig] = None

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if self.start_method not in (None, "fork", "spawn"):
            raise ValueError(f"unsupported start_method {self.start_method!r}")
        for name in (
            "heartbeat_interval_s",
            "heartbeat_timeout_s",
            "ready_timeout_s",
            "request_timeout_s",
            "queue_wait_timeout_s",
            "supervise_interval_s",
            "drain_timeout_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_replica_restarts < 0:
            raise ValueError("max_replica_restarts must not be negative")
        if self.restart_backoff_s < 0:
            raise ValueError("restart_backoff_s must not be negative")
        if self.max_inflight < 0:
            raise ValueError("max_inflight must not be negative")
        if self.shed_retry_after_s < 0:
            raise ValueError("shed_retry_after_s must not be negative")


@dataclass
class _InFlight:
    """One admitted request's routing state."""

    request_id: str
    request_dict: Dict
    created_at: float
    attempts: int = 0  # completed attempts (retries performed)
    replica: Optional[int] = None  # assigned slot index, None while waiting
    assigned_at: float = 0.0
    due_at: float = 0.0  # earliest re-dispatch time while waiting
    info: Dict = field(default_factory=dict)  # brownout keys of the last send


# ---------------------------------------------------------------------- #
# Replica slot lifecycle
# ---------------------------------------------------------------------- #
#: The only way a slot's state changes.  Entering ``starting`` spawns a
#: process; entering ``backoff`` schedules its respawn (``respawn`` counts
#: against ``max_replica_restarts``, nothing else does); ``stopping`` is
#: entered with nothing assigned and left on ``stopped``, once the process is
#: gone.  ``docs/robustness.md`` prints this table and
#: ``tests/serve/test_fleet_lifecycle.py`` keeps the two equal.
TRANSITIONS: Dict[Tuple[str, str], str] = {
    ("spare", "spawn"): "starting",
    ("spare", "shutdown"): "spare",
    ("starting", "ready"): "up",
    ("starting", "fail"): "backoff",
    ("starting", "exhaust"): "exhausted",
    ("starting", "scale_down"): "retiring",
    ("starting", "shutdown"): "stopping",
    ("up", "fail"): "backoff",
    ("up", "exhaust"): "exhausted",
    ("up", "scale_down"): "retiring",
    ("up", "shutdown"): "stopping",
    ("retiring", "ready"): "retiring",
    ("retiring", "drained"): "stopping",
    ("retiring", "fail"): "spare",
    ("retiring", "exhaust"): "spare",
    ("retiring", "shutdown"): "stopping",
    ("stopping", "stopped"): "spare",
    ("stopping", "shutdown"): "stopping",
    ("backoff", "respawn"): "starting",
    ("backoff", "scale_down"): "spare",
    ("backoff", "shutdown"): "spare",
    ("exhausted", "scale_down"): "spare",
    ("exhausted", "shutdown"): "spare",
}

#: States in which the slot's current process runs and its signals count.
LIVE = ("starting", "up", "retiring")

#: Slots that left routing on purpose (``/v1/state`` reports them retiring
#: and draining).
_OUT_OF_ROUTING = ("retiring", "stopping")

#: How each lifecycle state reads as ``/v1/state``'s ``state`` field.
_PUBLIC_STATE = dict(
    spare="down", starting="starting", up="up", retiring="up",
    stopping="stopping", backoff="down", exhausted="down",
)


def next_state(state: str, event: str) -> str:
    """Look ``(state, event)`` up in :data:`TRANSITIONS`; an illegal pair raises."""
    try:
        return TRANSITIONS[(state, event)]
    except KeyError:
        raise ValueError(
            f"illegal replica transition: event {event!r} in state {state!r}"
        ) from None


class Slot:
    """One replica slot: its lifecycle ``state``, the ``generation`` of its
    current process, and that process's last reported load."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.state = "spare"
        self.generation = 0
        self.spawned_at = 0.0
        self.last_heartbeat: Optional[float] = None
        self.queue_depth = 0
        self.handled = 0
        self.draining = False  # replica-service-side (from heartbeat)
        self.fatal: Optional[str] = None  # traceback of a failed startup
        self.restarts = 0
        self.respawn_at = 0.0  # when a ``backoff`` slot respawns
        self.assigned: set = set()  # tickets in flight on this slot

    @property
    def routable(self) -> bool:
        return self.state == "up" and not self.draining

    @property
    def desired(self) -> bool:
        """Whether the fleet wants this slot populated (scale-down clears it)."""
        return self.state not in ("spare", "retiring", "stopping")


def _failure_reason(slot: Slot, now: float, oldest_assigned_at, config):
    """Why a slot's running process must be failed at ``now``, else ``None``.

    Pipe EOF, fatal reports and dead processes arrive as ``lost``; this
    covers the detectors that need a clock: a respawn that never came up, a
    silent heartbeat, a hung planner (the oldest assigned request,
    ``oldest_assigned_at``).
    """
    if slot.state not in LIVE:
        return None
    if slot.state == "starting":
        if now - slot.spawned_at > config.ready_timeout_s:
            return "replica never became ready"
        return None
    heartbeat = slot.last_heartbeat
    if heartbeat is not None and now - heartbeat > config.heartbeat_timeout_s:
        return "heartbeat timed out"
    oldest = oldest_assigned_at
    if oldest is not None and now - oldest > config.request_timeout_s:
        return "assigned request timed out (hang)"
    return None


# ---------------------------------------------------------------------- #
# Outputs
# ---------------------------------------------------------------------- #
#: Start the slot's process for ``generation``.
Spawn = NamedTuple("Spawn", [("slot", int), ("generation", int)])
#: Make that process exit — send ``message`` first unless it is ``None`` (a
#: failure kill), wait ``grace`` seconds, escalate — then report ``stopped``.
Stop = NamedTuple(
    "Stop", [("slot", int), ("generation", int), ("message", Optional[tuple]), ("grace", float)],
)
#: Write ``("plan", ticket, request)`` to that process's pipe.
Send = NamedTuple(
    "Send", [("slot", int), ("generation", int), ("ticket", int), ("request", Dict)]
)
#: Set ``ticket``'s future to ``reply``.
Resolve = NamedTuple("Resolve", [("ticket", int), ("reply", object)])


# ---------------------------------------------------------------------- #
# The control plane
# ---------------------------------------------------------------------- #
class FleetControl:
    """Every fleet decision, driven by explicit inputs and ``now``.

    Every admitted ticket lives in exactly one place — ``waiting``,
    ``inflight`` (and its slot's ``assigned`` set), or resolved — and leaves
    it only through one of the methods below, so each ticket gets exactly
    one :class:`Resolve`.  ``max_batch_size`` is the replicas' micro-batch
    size: one batch per active replica is the brownout ladder's unit load.
    """

    def __init__(self, config: FleetConfig, max_batch_size: int = 1) -> None:
        self.config = config
        self.max_batch_size = max(int(max_batch_size), 1)
        # With autoscaling, slots exist up to max_replicas but only the
        # initial count is spawned; scale-up populates spare slots,
        # scale-down retires the extras drain-before-kill.
        autoscale = config.autoscale
        if autoscale is not None:
            num_slots = autoscale.max_replicas
            self.initial = min(max(config.num_replicas, autoscale.min_replicas), num_slots)
        else:
            num_slots = self.initial = config.num_replicas
        self.slots = [Slot(i) for i in range(num_slots)]
        self.autoscaler = Autoscaler(autoscale, self.initial) if autoscale else None
        self.brownout = BrownoutController(config.brownout) if config.brownout else None
        self.restart_policy = RetryPolicy(backoff_s=config.restart_backoff_s)
        self.rng = np.random.default_rng(config.seed)
        self.inflight: Dict[int, _InFlight] = {}
        self.waiting: Dict[int, _InFlight] = {}
        self.started = False
        self.draining = False
        self.latencies: "deque[float]" = deque(maxlen=1024)
        self.stats: Dict[str, float] = dict.fromkeys(
            ("submitted", "completed", "errors", "retried", "shed", "degraded", "restarts",
             "replica_failures", "scale_ups", "scale_downs", "supervisor_errors"),
            0,
        )

    @property
    def outstanding(self) -> int:
        return len(self.inflight) + len(self.waiting)

    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #
    def start(self, *, now: float) -> List:
        """Spawn the initial slots."""
        self.started = True
        actions: List = []
        for slot in self.slots[: self.initial]:
            actions += self._fire(slot, "spawn", now)
        return actions

    def submit(self, ticket: int, request_id: str, request_dict: Dict, *, now: float) -> List:
        """Admit ``ticket`` and route it, or shed it with a ``Retry-After`` hint."""
        shed = self._shed_reason()
        if shed is not None:
            self.stats["shed"] += 1
            retry_after_s = self.config.shed_retry_after_s or None
            error = PlanError(request_id, "service_unavailable", shed, retry_after_s=retry_after_s)
            return [Resolve(ticket, error)]
        self.stats["submitted"] += 1
        self.waiting[ticket] = _InFlight(request_id, request_dict, created_at=now, due_at=now)
        return self._dispatch(now)

    def ready(self, index: int, generation: int, *, now: float) -> List:
        slot = self.slots[index]
        if generation != slot.generation or (slot.state, "ready") not in TRANSITIONS:
            return []
        self._fire(slot, "ready", now)
        slot.fatal = None
        slot.last_heartbeat = now
        return self._dispatch(now)

    def heartbeat(self, index: int, generation: int, load: Dict, *, now: float) -> List:
        slot = self.slots[index]
        if generation == slot.generation:
            slot.last_heartbeat = now
            slot.queue_depth = int(load.get("queue_depth", 0))
            slot.handled = int(load.get("handled", 0))
            slot.draining = bool(load.get("draining", False))
        return []

    def reply(self, index: int, generation: int, ticket: int, reply_dict: Dict, *, now) -> List:
        """A replica answered ``ticket``; only the attempt in flight there counts."""
        slot = self.slots[index]
        entry = self.inflight.get(ticket)
        if entry is None or entry.replica != index or generation != slot.generation:
            return []  # a late answer to an attempt already retried elsewhere
        del self.inflight[ticket]
        slot.assigned.discard(ticket)
        try:
            reply = response_from_dict(reply_dict)
        except Exception:
            message = "replica sent an unparseable reply"
            reply = PlanError(entry.request_id, "internal_error", message)
        # A replica that stopped/drained under an assigned request answers
        # service_unavailable: that is the replica's problem, not the
        # caller's — retry on a survivor while budget remains.
        retry = not reply.ok and reply.code == "service_unavailable"
        if retry and entry.attempts < self.config.retry.max_retries:
            self._schedule_retry(ticket, entry, now)
            return self._dispatch(now)
        if reply.ok:
            reply.info.update(entry.info)
            self.stats["degraded"] += "degraded_to" in entry.info
        return [self._resolve(ticket, entry, reply, now)]

    def lost(self, index: int, generation: int, reason: str, fatal: Optional[str] = None,
             *, now: float) -> List:
        """The slot's process is gone or unreachable: fail the slot."""
        slot = self.slots[index]
        if generation != slot.generation or slot.state not in LIVE:
            return []  # the slot moved on: respawned, stopping, or already failed
        return self._fail(slot, reason, now, fatal) + self._dispatch(now)

    def stopped(self, index: int, generation: int, *, now: float) -> List:
        """A process this core asked to stop has exited."""
        slot = self.slots[index]
        if generation != slot.generation or slot.state != "stopping":
            return []
        return self._fire(slot, "stopped", now)

    def tick(self, *, now: float) -> List:
        """The supervisor's scan: respawns, the clock-based failure detectors,
        drain-then-stop, autoscale and brownout, queue-wait expiry, dispatch."""
        actions: List = []
        failed = []
        for slot in self.slots:
            if slot.state == "backoff" and now >= slot.respawn_at:
                slot.restarts += 1
                self.stats["restarts"] += 1
                actions += self._fire(slot, "respawn", now)
                continue
            oldest = min((self.inflight[t].assigned_at for t in slot.assigned), default=None)
            reason = _failure_reason(slot, now, oldest, self.config)
            if reason is not None:
                failed.append((slot, reason))
        for slot, reason in failed:
            actions += self._fail(slot, reason, now)
        actions += self._control_tick(now)
        # Bound the residency of unassigned work so a fully-down fleet still
        # terminates every future.
        for ticket in list(self.waiting):
            entry = self.waiting[ticket]
            wait_s = self.config.queue_wait_timeout_s
            if now - entry.created_at > wait_s:
                del self.waiting[ticket]
                message = f"no replica available within {wait_s:.0f}s"
                error = PlanError(entry.request_id, "service_unavailable", message)
                actions.append(self._resolve(ticket, entry, error, now))
        return actions + self._dispatch(now)

    def set_target(self, count: int, *, now: float) -> List:
        """Manually steer the replica count, clamped to the autoscale bounds."""
        if self.autoscaler is None:
            raise RuntimeError(
                "fleet was not built with FleetConfig.autoscale; "
                "manual scaling has no slot bounds to work within"
            )
        bounds = self.config.autoscale
        target = max(bounds.min_replicas, min(int(count), bounds.max_replicas))
        self.autoscaler.target = target
        return self._apply_scale(target, now)

    def drain(self, *, now: float) -> List:
        """Stop admitting; admitted work, retries and respawns carry on."""
        self.draining = True
        return []

    def shutdown(self, grace: float, *, now: float) -> List:
        """Resolve everything outstanding, then stop every slot's process."""
        self.draining = True
        actions = []
        for table in (self.inflight, self.waiting):
            for ticket, entry in table.items():
                message = "fleet stopped before the request completed"
                error = PlanError(entry.request_id, "service_unavailable", message)
                actions.append(self._resolve(ticket, entry, error, now))
            table.clear()
        for slot in self.slots:
            slot.assigned.clear()
            actions += self._stop(slot, "shutdown", ("exit", None), grace, now)
        return actions

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def state(self, pids, *, now: float) -> Dict:
        """The ``/v1/state`` body below its ``serving``/``draining`` flags."""
        window = sorted(self.latencies) or [0.0]
        payload = {
            "replicas": [
                {
                    "index": slot.index,
                    "pid": pid,
                    "state": _PUBLIC_STATE[slot.state],
                    "healthy": slot.routable,
                    "desired": slot.desired,
                    "retiring": slot.state in _OUT_OF_ROUTING,
                    "draining": slot.draining or slot.state in _OUT_OF_ROUTING,
                    "queue_depth": slot.queue_depth,
                    "assigned": len(slot.assigned),
                    "restarts": slot.restarts,
                    "handled": slot.handled,
                    "heartbeat_age_s": None if slot.last_heartbeat is None
                    else round(now - slot.last_heartbeat, 3),
                }
                for slot, pid in zip(self.slots, pids)
            ],
            "inflight": len(self.inflight),
            "waiting": len(self.waiting),
            "latency": {
                f"p{q}_ms": window[int(q / 100 * (len(window) - 1))] for q in (50, 95, 99)
            },
            "stats": dict(self.stats),
        }
        if self.autoscaler is not None:
            payload["autoscale"] = self.autoscaler.state_dict()
        if self.brownout is not None:
            payload["brownout"] = self.brownout.state_dict()
        return payload

    # ------------------------------------------------------------------ #
    # Internals — lifecycle
    # ------------------------------------------------------------------ #
    def _fire(self, slot: Slot, event: str, now: float) -> List:
        """Apply one lifecycle event to ``slot``; entering ``starting`` spawns."""
        state = next_state(slot.state, event)
        if state == "stopping" and slot.assigned:
            raise RuntimeError(f"replica {slot.index} cannot stop with work assigned")
        slot.state = state
        if state != "starting":
            return []
        slot.generation += 1
        slot.draining = False
        slot.queue_depth = 0
        slot.spawned_at = now
        slot.last_heartbeat = None
        return [Spawn(slot.index, slot.generation)]

    def _stop(self, slot: Slot, event: str, message, grace: float, now: float) -> List:
        """Fire ``event``; if the slot had a running process, stop it."""
        running = slot.state in LIVE
        actions = self._fire(slot, event, now)
        if running:
            actions.append(Stop(slot.index, slot.generation, message, grace))
        return actions

    def _fail(self, slot: Slot, reason: str, now: float, fatal: Optional[str] = None) -> List:
        """Fail a live slot: retry (or fail) its requests, kill its process,
        and schedule a respawn while budget remains."""
        event = "fail" if slot.restarts < self.config.max_replica_restarts else "exhaust"
        self._fire(slot, event, now)
        if fatal:
            slot.fatal = fatal
        self.stats["replica_failures"] += 1
        actions: List = []
        budget = self.config.retry.max_retries
        for ticket in sorted(slot.assigned):
            entry = self.inflight.pop(ticket)
            if entry.attempts < budget:
                self._schedule_retry(ticket, entry, now)
                continue
            message = (f"request failed on replica {slot.index} ({reason}) and "
                       f"exhausted its {budget}-retry budget")
            error = PlanError(entry.request_id, "service_unavailable", message)
            actions.append(self._resolve(ticket, entry, error, now))
        slot.assigned.clear()
        if slot.state == "backoff":
            backoff = self.restart_policy.backoff(slot.restarts + 1, rng=self.rng)
            slot.respawn_at = now + backoff
        actions.append(Stop(slot.index, slot.generation, None, 0.0))
        return actions

    # ------------------------------------------------------------------ #
    # Internals — routing, retries, resolution
    # ------------------------------------------------------------------ #
    def _shed_reason(self) -> Optional[str]:
        if self.draining:
            return "fleet is draining and no longer admits requests"
        # Brownout L3: the smoothed-load controller says the fleet is past
        # saturation — shed *new* arrivals (the backlog keeps draining).
        if self.brownout is not None and self.brownout.shedding:
            return "brownout: fleet is shedding load; retry later"
        bound = self.config.max_inflight
        if bound > 0 and self.outstanding >= bound:
            return f"fleet has {bound} requests outstanding (admission bound); retry later"
        return None

    def _choose(self) -> Optional[Slot]:
        """The least-loaded routable slot, or ``None``.

        Load is primarily the slot's assigned count — exact, unlike the
        heartbeat-lagged queue depth, which only breaks ties.  Index breaks
        the final tie so routing is deterministic.
        """
        routable = [slot for slot in self.slots if slot.routable]
        if not routable:
            return None
        return min(routable, key=lambda s: (len(s.assigned), s.queue_depth, s.index))

    def _dispatch(self, now: float) -> List:
        """Assign due waiting entries to the least-loaded routable slots."""
        due = sorted(
            (t for t, e in self.waiting.items() if e.due_at <= now),
            key=lambda t: self.waiting[t].due_at,
        )
        actions: List = []
        for ticket in due:
            slot = self._choose()
            if slot is None:
                break  # nobody healthy right now; a later tick retries
            entry = self.waiting.pop(ticket)
            entry.replica = slot.index
            entry.assigned_at = now
            self.inflight[ticket] = entry
            slot.assigned.add(ticket)
            # Each attempt goes out at the level that holds *now*; the stored
            # request stays as the caller sent it.
            request = entry.request_dict
            if self.brownout is not None:
                request, entry.info = self.brownout.apply(request)
            actions.append(Send(slot.index, slot.generation, ticket, request))
        return actions

    def _schedule_retry(self, ticket: int, entry: _InFlight, now: float) -> None:
        """Park an entry taken out of ``inflight`` for its next try."""
        entry.attempts += 1
        entry.replica = None
        entry.due_at = now + self.config.retry.backoff(entry.attempts, rng=self.rng)
        self.stats["retried"] += 1
        self.waiting[ticket] = entry

    def _resolve(self, ticket: int, entry: _InFlight, reply, now: float) -> Resolve:
        self.stats["completed"] += 1
        if not reply.ok:
            self.stats["errors"] += 1
        self.latencies.append((now - entry.created_at) * 1e3)
        return Resolve(ticket, reply)

    # ------------------------------------------------------------------ #
    # Internals — autoscaling, brownout, drain-then-stop
    # ------------------------------------------------------------------ #
    def _control_tick(self, now: float) -> List:
        """Drain-then-stop progression + one autoscale/brownout observation."""
        # Retiring slots are out of routing; once their last assigned
        # request resolves they are stopped.  With nothing assigned
        # the replica's drain is immediate; the 5 s grace only bounds a
        # wedged exit before SIGTERM/SIGKILL.
        actions: List = []
        for slot in self.slots:
            if slot.state == "retiring" and not slot.assigned:
                actions += self._stop(slot, "drained", ("drain", 4.5), 5.0, now)
        if self.autoscaler is None and self.brownout is None:
            return actions
        active = sum(1 for slot in self.slots if slot.desired)
        outstanding = self.outstanding
        if self.brownout is not None:
            # Normalized load: outstanding work over one batch's worth of
            # capacity per active replica.
            self.brownout.observe(outstanding / (max(active, 1) * self.max_batch_size), now)
        if self.autoscaler is not None:
            load = FleetLoad(active_replicas=active, outstanding=outstanding)
            actions += self._apply_scale(self.autoscaler.observe(load, now), now)
        return actions

    def _apply_scale(self, target: int, now: float) -> List:
        """Move the desired replica set toward ``target``.

        Scale-up populates spare slots (least-restarted first) and spawns
        immediately.  Scale-down is strictly drain-before-kill: the victim
        (emptiest slot, highest index on ties — deterministic) leaves routing
        at once but is only stopped by :meth:`_control_tick` after its last
        in-flight request resolves.  Already-down slots are free victims.
        """
        if not self.started or self.draining:
            return []
        actions: List = []
        desired = [slot for slot in self.slots if slot.desired]
        if len(desired) < target:
            spares = sorted(
                (slot for slot in self.slots if slot.state == "spare"),
                key=lambda slot: (slot.restarts, slot.index),
            )
            for slot in spares[: target - len(desired)]:
                self.stats["scale_ups"] += 1
                actions += self._fire(slot, "spawn", now)
        elif len(desired) > target:
            down = ("backoff", "exhausted")
            victims = sorted(
                desired, key=lambda s: (s.state not in down, len(s.assigned), -s.index)
            )
            for slot in victims[: len(desired) - target]:
                self.stats["scale_downs"] += 1
                self._fire(slot, "scale_down", now)
        return actions
