"""Self-healing replica fleet: supervised serving processes behind one router.

:class:`ReplicaFleet` runs ``N`` replica worker processes, each hosting a
full :class:`~repro.serve.service.ReschedulingService` (its own queue worker
and micro-batcher) over **read-only model weights** shared through
:class:`~repro.env.shared_memory.SharedModuleWeights` pages — one weight copy
fleet-wide, not one per replica.  The parent process is the router: it
health-checks replicas by heartbeat, routes each request to the least-loaded
available replica (:func:`~repro.serve.router.choose_replica`), retries
failed or timed-out requests on a surviving replica under a bounded
:class:`~repro.serve.router.RetryPolicy`, and restarts dead or hung replicas
in place with the same per-slot budget + jittered exponential backoff
discipline :class:`~repro.env.async_vector_env.AsyncVectorEnv` uses for env
workers (both spawn, stop and back off through :mod:`repro.supervise`).

Each replica slot's lifecycle is one ``state`` that changes only through
:data:`TRANSITIONS`, the ``(state, event) → state`` table also printed in
``docs/robustness.md``.  Scale-down and rolling restart are one path: the
slot leaves routing, the supervisor stops it once its in-flight work has
drained, and the table sends it to ``spare`` or back to ``starting``.

The contract the chaos suites (``tests/robustness/test_fleet_faults.py``)
enforce:

* **Exactly one terminal reply per admitted request** — success, partial, or
  a stable :class:`~repro.serve.schemas.PlanError` — under any interleaving
  of replica crashes, hangs, and restarts.  Every ticket lives in exactly one
  place (assigned to a replica, waiting for reassignment, or resolved) and
  every transition happens under one lock.
* **Replica failure is invisible when budget remains** — in-flight requests
  on a dead/hung replica are re-dispatched to survivors; the dead replica is
  respawned in place within its backoff budget.
* **Graceful drain** — :meth:`drain` stops admission (new submits shed with a
  ``Retry-After`` hint), lets every admitted request finish (including
  retries through mid-drain failures), then stops the replicas.  Zero
  admitted requests are dropped.
* **Rolling restart** — :meth:`rolling_restart` cycles replicas one at a
  time (drain one, respawn it, wait ready, move on) with the rest of the
  fleet carrying traffic, so a deploy drops nothing.

Failure detectors, and why each exists:

=================  ====================================================
signal             catches
=================  ====================================================
pipe EOF / death   crashed replica (``os._exit``, OOM kill, bug)
stale heartbeat    wedged replica *process* (heartbeat thread silent)
request age        hung *planner* — the replica's heartbeat thread keeps
                   beating while its service worker is stuck, so a hang
                   only shows as an assigned request older than
                   ``request_timeout_s``
ready timeout      a respawn that never comes up
=================  ====================================================
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import supervise
from ..env.shared_memory import SharedModuleWeights
from .autoscale import (
    Autoscaler,
    AutoscaleConfig,
    BrownoutConfig,
    BrownoutController,
    FleetLoad,
)
from .registry import build_default_registry
from .router import ReplicaView, RetryPolicy, choose_replica
from .schemas import PlanError, PlanRequest, SchemaError, response_from_dict
from .service import Reply, ReschedulingService, ServiceConfig


# ---------------------------------------------------------------------- #
# Spawn-picklable registry factories
# ---------------------------------------------------------------------- #
class DefaultRegistryFactory:
    """Builds each replica's planner registry inside the replica process.

    Module-level and attribute-only so it pickles under the ``spawn`` start
    method.  With ``weights`` (a :class:`SharedModuleWeights` over the
    policy's parameters, plus the agent's ``config_dict``), the replica
    rebuilds the architecture and *attaches* to the shared read-only pages —
    no per-replica weight copy, no checkpoint read.  Otherwise it loads
    ``checkpoint`` or initializes a fresh agent.
    """

    def __init__(
        self,
        checkpoint: Optional[str] = None,
        include_slow: bool = False,
        seed: int = 0,
        config_dict: Optional[Dict] = None,
        weights: Optional[SharedModuleWeights] = None,
    ) -> None:
        self.checkpoint = checkpoint
        self.include_slow = include_slow
        self.seed = seed
        self.config_dict = config_dict
        self.weights = weights

    @classmethod
    def from_agent(cls, agent, include_slow: bool = False) -> "DefaultRegistryFactory":
        """Share ``agent``'s policy weights with every replica, read-only."""
        return cls(
            include_slow=include_slow,
            seed=agent.seed,
            config_dict=agent.config.to_dict(),
            weights=SharedModuleWeights.from_module(agent.policy),
        )

    def __call__(self):
        from ..core.agent import VMR2LAgent
        from ..core.config import VMR2LConfig

        if self.weights is not None:
            config = (
                VMR2LConfig.from_dict(self.config_dict)
                if self.config_dict is not None
                else None
            )
            agent = VMR2LAgent(config=config, seed=self.seed)
            self.weights.attach(agent.policy)
        elif self.checkpoint is not None:
            agent = VMR2LAgent.load(self.checkpoint)
        else:
            agent = VMR2LAgent(seed=self.seed)
        return build_default_registry(
            agent=agent, include_slow=self.include_slow, seed=self.seed
        )


# ---------------------------------------------------------------------- #
# Replica worker process
# ---------------------------------------------------------------------- #
def _replica_main(
    conn,
    registry_factory,
    service_config: Optional[ServiceConfig],
    heartbeat_interval_s: float,
    replica_index: int,
) -> None:
    """One replica: a ReschedulingService bridged onto the supervisor pipe.

    Protocol (parent → replica): ``("plan", ticket, request_dict)``,
    ``("drain", timeout_s)``, ``("exit", None)``.  Replica → parent:
    ``("ready", info)``, ``("heartbeat", load)``, ``("reply", ticket,
    reply_dict)``, ``("fatal", traceback)``.

    The recv loop never blocks on planning: plan futures reply through
    ``add_done_callback``, so a hung planner stalls only the service worker —
    heartbeats keep flowing and the parent's request-age detector owns the
    diagnosis.
    """
    # The parent coordinates shutdown over the pipe; stray terminal signals
    # must not take a replica down mid-request.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (OSError, ValueError, BrokenPipeError):
                pass  # parent is gone; nothing useful left to report

    try:
        registry = registry_factory()
        service = ReschedulingService(registry=registry, config=service_config)
        service.start()
    except Exception:
        send(("fatal", traceback.format_exc()))
        return

    stop_beat = threading.Event()

    def heartbeat() -> None:
        while not stop_beat.is_set():
            send(
                (
                    "heartbeat",
                    {
                        "queue_depth": service.pending_count(),
                        "handled": int(service.stats()["requests"]),
                        "draining": service.is_draining,
                        "brownout_level": service.brownout_level,
                    },
                )
            )
            stop_beat.wait(heartbeat_interval_s)

    threading.Thread(
        target=heartbeat, name=f"replica-{replica_index}-heartbeat", daemon=True
    ).start()
    send(("ready", {"pid": os.getpid(), "planners": registry.describe()}))

    def replier(ticket: int):
        def callback(future: Future) -> None:
            try:
                reply = future.result()
            except Exception as exc:  # futures resolve to replies; belt & braces
                reply = PlanError("", "internal_error", f"replica reply failed: {exc}")
            send(("reply", ticket, reply.to_dict()))

        return callback

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent died; exit quietly
            kind = message[0]
            if kind == "plan":
                _, ticket, request_dict = message
                try:
                    request = PlanRequest.from_dict(request_dict)
                except SchemaError as exc:
                    send(("reply", ticket, PlanError("", exc.code, str(exc)).to_dict()))
                    continue
                try:
                    future = service.submit(request)
                except RuntimeError as exc:  # stopped under us: retryable
                    error = PlanError(
                        request.request_id,
                        "service_unavailable",
                        str(exc),
                        retry_after_s=0.05,
                    )
                    send(("reply", ticket, error.to_dict()))
                    continue
                future.add_done_callback(replier(ticket))
            elif kind == "drain":
                # Pipe FIFO ordering guarantees every "plan" the parent sent
                # before this drain has already been submitted above; drain
                # resolves all of their futures (success or stable error),
                # firing the reply callbacks, before the replica exits.
                service.drain(timeout=float(message[1]))
                break
            elif kind == "exit":
                break
    finally:
        stop_beat.set()
        try:
            service.stop(timeout=2.0)
        except Exception:
            pass


# ---------------------------------------------------------------------- #
# Fleet supervisor / router
# ---------------------------------------------------------------------- #
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
    #: Fleet-level brownout ladder: L3 sheds at admission, L1 stamps reduced
    #: deadlines onto dispatched requests, and the level is exported via
    #: ``/v1/state``.  Replica-*internal* ladders come from
    #: ``service_config.brownout`` instead.  ``None`` disables.
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
    """One admitted request's routing state (all transitions under the lock)."""

    request_id: str
    request_dict: Dict
    future: Future
    created_at: float
    attempts: int = 0  # completed attempts (retries performed)
    replica: Optional[int] = None  # assigned replica index, None while waiting
    assigned_at: float = 0.0
    due_at: float = 0.0  # earliest re-dispatch time while waiting


# ---------------------------------------------------------------------- #
# Replica slot lifecycle
# ---------------------------------------------------------------------- #
#: The only way a slot's state changes.  Entering ``starting`` spawns a
#: process; entering ``backoff`` schedules its respawn (``respawn`` counts
#: against ``max_replica_restarts``, nothing else does); ``restarting`` and
#: ``stopping`` are entered with nothing assigned and left on ``stopped``,
#: once the process is gone.  ``docs/robustness.md`` prints this table and
#: ``tests/serve/test_fleet_lifecycle.py`` keeps the two equal.
TRANSITIONS: Dict[Tuple[str, str], str] = {
    ("spare", "spawn"): "starting",
    ("spare", "shutdown"): "spare",
    ("starting", "ready"): "up",
    ("starting", "fail"): "backoff",
    ("starting", "exhaust"): "exhausted",
    ("starting", "roll"): "rolling",
    ("starting", "scale_down"): "retiring",
    ("starting", "shutdown"): "stopping",
    ("up", "fail"): "backoff",
    ("up", "exhaust"): "exhausted",
    ("up", "roll"): "rolling",
    ("up", "scale_down"): "retiring",
    ("up", "shutdown"): "stopping",
    ("rolling", "ready"): "rolling",
    ("rolling", "drained"): "restarting",
    ("rolling", "fail"): "backoff",
    ("rolling", "exhaust"): "exhausted",
    ("rolling", "scale_down"): "retiring",
    ("rolling", "shutdown"): "stopping",
    ("retiring", "ready"): "retiring",
    ("retiring", "drained"): "stopping",
    ("retiring", "fail"): "spare",
    ("retiring", "exhaust"): "spare",
    ("retiring", "shutdown"): "stopping",
    ("restarting", "stopped"): "starting",
    ("restarting", "scale_down"): "stopping",
    ("restarting", "shutdown"): "stopping",
    ("stopping", "stopped"): "spare",
    ("stopping", "shutdown"): "stopping",
    ("backoff", "respawn"): "starting",
    ("backoff", "roll"): "starting",
    ("backoff", "scale_down"): "spare",
    ("backoff", "shutdown"): "spare",
    ("exhausted", "roll"): "starting",
    ("exhausted", "scale_down"): "spare",
    ("exhausted", "shutdown"): "spare",
}

#: Slots that left routing on purpose (``/v1/state`` reports them draining).
_OUT_OF_ROUTING = ("rolling", "retiring", "restarting", "stopping")

#: How each lifecycle state reads as ``/v1/state``'s ``state`` field.
_PUBLIC_STATE = dict(
    spare="down", starting="starting", up="up", rolling="up", retiring="up",
    restarting="stopping", stopping="stopping", backoff="down", exhausted="down",
)


def next_state(state: str, event: str) -> str:
    """Look ``(state, event)`` up in :data:`TRANSITIONS`; an illegal pair raises."""
    try:
        return TRANSITIONS[(state, event)]
    except KeyError:
        raise ValueError(
            f"illegal replica transition: event {event!r} in state {state!r}"
        ) from None


class _Replica:
    """Supervisor-side bookkeeping for one replica slot.

    ``state`` is the slot's whole lifecycle (see :data:`TRANSITIONS`); the
    other fields are the current process's handles and last reported load.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.state = "spare"
        self.process = None
        self.conn = None
        self.send_lock = threading.Lock()
        self.spawned_at = 0.0
        self.last_heartbeat = 0.0
        self.queue_depth = 0
        self.handled = 0
        self.draining = False  # replica-service-side (from heartbeat)
        self.brownout_level = 0  # replica-service-side (from heartbeat)
        self.fatal: Optional[str] = None  # traceback of a failed startup
        self.restarts = 0
        self.respawn_at = 0.0  # when a ``backoff`` slot respawns
        self.assigned: set = set()  # tickets in flight on this replica
        self.pid: Optional[int] = None

    @property
    def routable(self) -> bool:
        return self.state == "up" and not self.draining

    @property
    def desired(self) -> bool:
        """Whether the fleet wants this slot populated (scale-down clears it)."""
        return self.state not in ("spare", "retiring", "stopping")

    def send(self, conn, message) -> None:
        with self.send_lock:
            conn.send(message)


def _failure_reason(slot: _Replica, now: float, oldest_assigned_at, config):
    """Why a slot with a live process must be failed at ``now``, else ``None``.

    Pipe EOF and fatal reports fail a slot from its reader thread at once;
    this covers the detectors that need a clock: death without EOF, a
    respawn that never came up, a silent heartbeat, a hung planner (the
    oldest assigned request, ``oldest_assigned_at``).
    """
    live = ("starting", "up", "rolling", "retiring")
    if slot.process is None or slot.state not in live:
        return None
    if not slot.process.is_alive():
        return "replica process died"
    if slot.state == "starting":
        if now - slot.spawned_at > config.ready_timeout_s:
            return "replica never became ready"
        return None
    if slot.last_heartbeat and now - slot.last_heartbeat > config.heartbeat_timeout_s:
        return "heartbeat timed out"
    oldest = oldest_assigned_at
    if oldest is not None and now - oldest > config.request_timeout_s:
        return "assigned request timed out (hang)"
    return None


class ReplicaFleet:
    """Supervised replica pool + request router behind the service interface.

    Duck-types the surface :class:`~repro.serve.server.PlanningServer`
    expects of a backend (``start``/``stop``/``plan``/``stats``/``state``/
    ``registry``), so the stdlib HTTP frontend serves a fleet exactly as it
    serves a single in-process service.
    """

    def __init__(
        self,
        registry_factory,
        config: Optional[FleetConfig] = None,
        service_config: Optional[ServiceConfig] = None,
    ) -> None:
        self.registry_factory = registry_factory
        self.config = config or FleetConfig()
        # Replica queues are unbounded by default: admission control lives at
        # the fleet (max_inflight), not per replica — a shed must happen
        # before a request crosses a pipe, not after.
        self.service_config = service_config or ServiceConfig()
        # With autoscaling, slots exist up to max_replicas but only the
        # initial count is spawned; scale-up populates spare slots,
        # scale-down retires the extras drain-before-kill.
        autoscale = self.config.autoscale
        if autoscale is not None:
            num_slots = autoscale.max_replicas
            self._initial = min(
                max(self.config.num_replicas, autoscale.min_replicas),
                autoscale.max_replicas,
            )
        else:
            num_slots = self._initial = self.config.num_replicas
        self._replicas = [_Replica(i) for i in range(num_slots)]
        self._autoscaler = (
            Autoscaler(autoscale, initial_replicas=self._initial)
            if autoscale is not None
            else None
        )
        self._brownout = (
            BrownoutController(self.config.brownout)
            if self.config.brownout is not None
            else None
        )
        self._lock = threading.Lock()
        #: Notified on every lifecycle transition and resolved request.
        self._changed = threading.Condition(self._lock)
        self._restart_policy = RetryPolicy(backoff_s=self.config.restart_backoff_s)
        self._tickets = itertools.count()
        self._inflight: Dict[int, _InFlight] = {}
        self._waiting: Dict[int, _InFlight] = {}
        self._rng = np.random.default_rng(self.config.seed)
        self._started = False
        self._stopped = False
        self._draining = False
        self._stop_event = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._planners_description: Optional[List[Dict]] = None
        self._latencies: "deque[float]" = deque(maxlen=1024)
        self._stats: Dict[str, float] = dict.fromkeys(
            ("submitted", "completed", "errors", "retried", "shed", "restarts",
             "replica_failures", "rolls", "scale_ups", "scale_downs"),
            0,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, timeout: Optional[float] = None) -> None:
        """Spawn the initial replicas and wait until all report ready (idempotent)."""
        if self._started and not self._stopped:
            return
        if self._stopped:
            raise RuntimeError("a stopped fleet cannot be restarted; build a new one")
        self._started = True
        initial = self._replicas[: self._initial]
        with self._lock:
            for replica in initial:
                self._fire(replica, "spawn")
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="fleet-supervisor", daemon=True
        )
        self._supervisor.start()
        budget = timeout or self.config.ready_timeout_s
        with self._lock:
            self._changed.wait_for(
                lambda: any(r.fatal for r in initial)
                or all(r.state not in ("starting", "backoff") for r in initial),
                timeout=budget,
            )
            failed = [
                r
                for r in initial
                if r.fatal or r.state in ("starting", "backoff", "exhausted")
            ]
        if failed:
            self.stop()
            replica = failed[0]
            if replica.fatal:
                raise RuntimeError(
                    f"replica {replica.index} failed to start:\n{replica.fatal}"
                )
            raise RuntimeError(
                f"replica {replica.index} did not become ready within {budget:.0f}s"
            )

    def stop(self, timeout: float = 5.0) -> None:
        """Hard stop: fail outstanding requests stably, exit replicas (idempotent)."""
        if not self._started or (self._stopped and self._supervisor is None):
            self._stopped = True
            return
        self._stopped = True
        self._draining = True
        self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
            self._supervisor = None
        # Every ticket still outstanding resolves — no caller hangs on stop.
        with self._lock:
            leftovers = list(self._inflight.values()) + list(self._waiting.values())
            self._inflight.clear()
            self._waiting.clear()
            for replica in self._replicas:
                replica.assigned.clear()
                self._begin_stop(replica, "shutdown", ("exit", None), grace=timeout)
        for entry in leftovers:
            self._resolve(
                entry,
                PlanError(
                    entry.request_id,
                    "service_unavailable",
                    "fleet stopped before the request completed",
                ),
            )
        with self._lock:
            self._changed.wait_for(
                lambda: all(r.state == "spare" for r in self._replicas),
                timeout=timeout + 2.0,
            )

    def drain(self, timeout: Optional[float] = None) -> int:
        """Graceful shutdown: shed new work, finish admitted work, stop.

        Returns the number of requests that were still unfinished when the
        budget ran out (0 on a clean drain — the invariant the chaos suite
        asserts).  Retries and replica respawns keep running during the
        drain, so admitted requests survive replicas dying mid-drain.
        """
        budget = timeout if timeout is not None else self.config.drain_timeout_s
        self._draining = True
        with self._lock:
            self._changed.wait_for(
                lambda: not self._inflight and not self._waiting, timeout=budget
            )
            dropped = len(self._inflight) + len(self._waiting)
        self.stop()
        return dropped

    def __enter__(self) -> "ReplicaFleet":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def rolling_restart(self, timeout_per_replica: float = 60.0) -> None:
        """Replace every replica one at a time without dropping requests.

        Each slot leaves routing, is stopped by the supervisor once its
        in-flight work has drained, respawns, and rejoins routing once ready
        — the rest of the fleet carries traffic throughout.  Intentional
        rolls do not consume the failure restart budget.
        """
        for replica in self._replicas:
            with self._lock:
                if self._stopped or (replica.state, "roll") not in TRANSITIONS:
                    continue  # spare, retiring or already stopping: nothing to roll
                self._stats["rolls"] += 1
                self._fire(replica, "roll")
                back = self._changed.wait_for(
                    lambda: replica.state in ("up", "spare"),
                    timeout=timeout_per_replica,
                )
            if not back:
                raise RuntimeError(
                    f"replica {replica.index} did not come back within "
                    f"{timeout_per_replica:.0f}s during rolling restart"
                )

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def submit(self, request: PlanRequest) -> "Future[Reply]":
        """Admit a request; its future always resolves to a terminal reply."""
        if not self._started or self._stopped:
            raise RuntimeError("fleet is not started; call start() first")
        future: "Future[Reply]" = Future()
        shed = None
        if self._draining:
            shed = "fleet is draining and no longer admits requests"
        # Brownout L3: the supervisor's smoothed-load controller says the
        # fleet is past saturation — shed *new* arrivals (the backlog keeps
        # draining) with a Retry-After hint.
        elif self._brownout is not None and self._brownout.shedding:
            shed = "brownout: fleet is shedding load; retry later"
        now = time.monotonic()
        with self._lock:
            bound = self.config.max_inflight
            outstanding = len(self._inflight) + len(self._waiting)
            if shed is None and bound > 0 and outstanding >= bound:
                shed = (
                    f"fleet has {bound} requests outstanding (admission bound); "
                    "retry later"
                )
            if shed is not None:
                self._stats["shed"] += 1
            else:
                ticket = next(self._tickets)
                self._stats["submitted"] += 1
                self._waiting[ticket] = _InFlight(
                    request_id=request.request_id,
                    request_dict=request.to_dict(),
                    future=future,
                    created_at=now,
                    due_at=now,
                )
        if shed is not None:
            future.set_result(
                PlanError(
                    request.request_id,
                    "service_unavailable",
                    shed,
                    retry_after_s=self.config.shed_retry_after_s or None,
                )
            )
            return future
        self._dispatch_waiting()
        return future

    def plan(self, request: PlanRequest, timeout: Optional[float] = None) -> Reply:
        """Submit and wait — the call the HTTP handler threads use."""
        return self.submit(request).result(timeout=timeout)

    # ------------------------------------------------------------------ #
    # Introspection (the PlanningServer backend surface)
    # ------------------------------------------------------------------ #
    @property
    def is_serving(self) -> bool:
        return self._started and not self._stopped and not self._draining

    @property
    def is_draining(self) -> bool:
        return self._draining and not self._stopped

    @property
    def registry(self) -> "_RegistryDescription":
        return _RegistryDescription(self._planners_description or [])

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._stats)

    def latency_percentiles(self) -> Dict[str, float]:
        with self._lock:
            window = sorted(self._latencies)
        if not window:
            return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
        return {
            "p50_ms": window[int(0.50 * (len(window) - 1))],
            "p95_ms": window[int(0.95 * (len(window) - 1))],
            "p99_ms": window[int(0.99 * (len(window) - 1))],
        }

    def state(self) -> Dict:
        """The ``/v1/state`` body: per-replica health + fleet-level counters."""
        now = time.monotonic()
        with self._lock:
            replicas = [
                {
                    "index": replica.index,
                    "pid": replica.pid,
                    "state": _PUBLIC_STATE[replica.state],
                    "healthy": replica.routable,
                    "desired": replica.desired,
                    "retiring": replica.state in ("retiring", "stopping"),
                    "draining": replica.draining
                    or replica.state in _OUT_OF_ROUTING,
                    "queue_depth": replica.queue_depth,
                    "assigned": len(replica.assigned),
                    "restarts": replica.restarts,
                    "handled": replica.handled,
                    "brownout_level": replica.brownout_level,
                    "heartbeat_age_s": (
                        round(now - replica.last_heartbeat, 3)
                        if replica.last_heartbeat
                        else None
                    ),
                }
                for replica in self._replicas
            ]
            inflight = len(self._inflight)
            waiting = len(self._waiting)
            stats = dict(self._stats)
        payload = {
            "serving": self.is_serving,
            "draining": self._draining,
            "replicas": replicas,
            "inflight": inflight,
            "waiting": waiting,
            "latency": self.latency_percentiles(),
            "stats": stats,
        }
        if self._autoscaler is not None:
            payload["autoscale"] = self._autoscaler.state_dict()
        if self._brownout is not None:
            payload["brownout"] = self._brownout.state_dict()
        return payload

    def supervisor_stats(self) -> Dict[str, object]:
        """Restart bookkeeping, mirroring ``AsyncVectorEnv.supervisor_stats``."""
        with self._lock:
            return {
                "restarts": int(self._stats["restarts"]),
                "restarts_per_replica": [r.restarts for r in self._replicas],
                "max_replica_restarts": self.config.max_replica_restarts,
            }

    def control_plane_stats(self) -> Dict[str, float]:
        """Flat supervision-counter summary for simulation reports:
        restarts/rolls/sheds/retries plus autoscale and brownout activity."""
        with self._lock:
            payload = {key: int(value) for key, value in self._stats.items()}
            payload["active_replicas"] = sum(1 for r in self._replicas if r.desired)
        brownout = self._brownout
        off = brownout is None
        payload["brownout_transitions"] = 0 if off else len(brownout.transitions)
        payload["brownout_level"] = 0 if off else brownout.level
        return payload

    # ------------------------------------------------------------------ #
    # Scaling
    # ------------------------------------------------------------------ #
    def set_target_replicas(self, count: int) -> int:
        """Manually steer the replica count (clamped to the autoscale bounds).

        Requires the fleet to be built with ``FleetConfig.autoscale`` (use
        :meth:`AutoscaleConfig.manual` for bounds without automatic
        decisions).  Scale-down remains drain-before-kill: retiring replicas
        finish their in-flight work before they are stopped.  Returns the
        clamped target.
        """
        if self._autoscaler is None:
            raise RuntimeError(
                "fleet was not built with FleetConfig.autoscale; "
                "manual scaling has no slot bounds to work within"
            )
        bounds = self.config.autoscale
        target = max(bounds.min_replicas, min(int(count), bounds.max_replicas))
        self._autoscaler.target = target
        self._apply_scale(target)
        return target

    # ------------------------------------------------------------------ #
    # Internals — lifecycle transitions, spawning and stopping
    # ------------------------------------------------------------------ #
    def _fire(self, replica: _Replica, event: str, conn=None) -> bool:
        """Apply one lifecycle event to ``replica`` (caller holds the lock).

        A signal about a connection the slot no longer holds — an EOF or a
        ready from its previous process — is dropped: returns ``False``.
        """
        if conn is not None and conn is not replica.conn:
            return False
        state = next_state(replica.state, event)
        if state in ("restarting", "stopping") and replica.assigned:
            raise RuntimeError(
                f"replica {replica.index} cannot stop with work assigned"
            )
        replica.state = state
        if state == "starting":
            self._spawn(replica)
        self._changed.notify_all()
        return True

    def _spawn(self, replica: _Replica) -> None:
        process, conn = supervise.spawn(
            multiprocessing.get_context(self.config.start_method or "spawn"),
            _replica_main,
            (
                self.registry_factory,
                self.service_config,
                self.config.heartbeat_interval_s,
                replica.index,
            ),
            name=f"fleet-replica-{replica.index}",
        )
        replica.process, replica.conn, replica.pid = process, conn, process.pid
        replica.draining = False
        replica.queue_depth = 0
        replica.spawned_at = time.monotonic()
        replica.last_heartbeat = 0.0
        threading.Thread(
            target=self._read_loop,
            args=(replica, conn),
            name=f"fleet-reader-{replica.index}",
            daemon=True,
        ).start()

    def _begin_stop(self, replica: _Replica, event: str, message, grace: float) -> None:
        """Fire ``event``; if the slot had a process, stop it off-thread.

        The handles are detached here, under the lock, so anything the old
        process still signals is stale from now on.  ``stopped`` fires once
        the process is gone.
        """
        self._fire(replica, event)
        process, conn = replica.process, replica.conn
        replica.process = replica.conn = None
        if process is not None:
            threading.Thread(
                target=self._stop_slot,
                args=(replica, process, conn, message, grace),
                name=f"fleet-stop-{replica.index}",
                daemon=True,
            ).start()

    def _stop_slot(self, replica: _Replica, process, conn, message, grace) -> None:
        try:
            replica.send(conn, message)
        except (OSError, ValueError):
            pass
        supervise.stop(process, conn, grace)
        with self._lock:
            self._fire(replica, "stopped")

    # ------------------------------------------------------------------ #
    # Internals — replica pipe reader
    # ------------------------------------------------------------------ #
    def _read_loop(self, replica: _Replica, conn) -> None:
        fatal = None
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "reply":
                self._on_reply(message[1], message[2])
            elif kind == "heartbeat":
                load = message[1]
                with self._lock:
                    replica.last_heartbeat = time.monotonic()
                    replica.queue_depth = int(load.get("queue_depth", 0))
                    replica.handled = int(load.get("handled", 0))
                    replica.draining = bool(load.get("draining", False))
                    replica.brownout_level = int(load.get("brownout_level", 0))
            elif kind == "ready":
                with self._lock:
                    if self._fire(replica, "ready", conn):
                        replica.fatal = None
                        replica.last_heartbeat = time.monotonic()
                        if self._planners_description is None:
                            self._planners_description = message[1].get("planners")
                self._dispatch_waiting()
            elif kind == "fatal":
                fatal = message[1]
                break
        reason = "replica reported a fatal error" if fatal else "replica process died"
        self._fail_replica(replica, reason, conn, fatal=fatal)

    def _on_reply(self, ticket: int, reply_dict: Dict) -> None:
        with self._lock:
            entry = self._inflight.pop(ticket, None)
            if entry is None:
                return  # late duplicate of a retried ticket — drop
            if entry.replica is not None:
                self._replicas[entry.replica].assigned.discard(ticket)
        try:
            reply = response_from_dict(reply_dict)
        except Exception:
            reply = PlanError(
                entry.request_id, "internal_error", "replica sent an unparseable reply"
            )
        # A replica that stopped/drained under an assigned request answers
        # service_unavailable: that is the replica's problem, not the
        # caller's — retry on a survivor while budget remains.
        if (
            not reply.ok
            and reply.code == "service_unavailable"
            and entry.attempts < self.config.retry.max_retries
        ):
            with self._lock:
                self._schedule_retry(next(self._tickets), entry, time.monotonic())
            self._dispatch_waiting()
            return
        self._resolve(entry, reply)

    # ------------------------------------------------------------------ #
    # Internals — routing, retries, resolution
    # ------------------------------------------------------------------ #
    def _schedule_retry(self, ticket: int, entry: _InFlight, now: float) -> None:
        """Park an entry popped from ``_inflight`` for its next try (under the lock)."""
        entry.attempts += 1
        entry.replica = None
        entry.due_at = now + self.config.retry.backoff(entry.attempts, rng=self._rng)
        self._stats["retried"] += 1
        self._waiting[ticket] = entry

    def _resolve(self, entry: _InFlight, reply: Reply) -> None:
        with self._lock:
            self._stats["completed"] += 1
            if not reply.ok:
                self._stats["errors"] += 1
            self._latencies.append((time.monotonic() - entry.created_at) * 1e3)
            self._changed.notify_all()
        if not entry.future.done():
            entry.future.set_result(reply)

    def _dispatch_waiting(self) -> None:
        """Assign due waiting entries to the least-loaded routable replicas."""
        now = time.monotonic()
        to_send = []
        with self._lock:
            due = sorted(
                (t for t, e in self._waiting.items() if e.due_at <= now),
                key=lambda t: self._waiting[t].due_at,
            )
            for ticket in due:
                views = [
                    ReplicaView(
                        index=r.index,
                        available=r.routable,
                        assigned=len(r.assigned),
                        queue_depth=r.queue_depth,
                    )
                    for r in self._replicas
                ]
                index = choose_replica(views)
                if index is None:
                    break  # nobody healthy right now; the supervisor retries
                replica = self._replicas[index]
                entry = self._waiting.pop(ticket)
                entry.replica = index
                entry.assigned_at = now
                self._inflight[ticket] = entry
                replica.assigned.add(ticket)
                to_send.append((replica, replica.conn, ticket, entry))
        for replica, conn, ticket, entry in to_send:
            request_dict = entry.request_dict
            if self._brownout is not None and self._brownout.reduce_deadline:
                # Brownout L1: stamp the reduced deadline onto the dispatched
                # copy (never the stored one — a retry after recovery should
                # run at whatever level holds *then*).
                request_dict = dict(request_dict)
                request_dict["deadline_ms"] = self._brownout.effective_deadline_ms(
                    request_dict.get("deadline_ms")
                )
            try:
                replica.send(conn, ("plan", ticket, request_dict))
            except (OSError, ValueError):
                self._fail_replica(replica, "pipe send failed", conn)

    def _fail_replica(self, replica: _Replica, reason: str, conn, fatal=None) -> None:
        """Fail the slot ``conn`` belongs to: retry its requests, kill it, and
        schedule a respawn while budget remains.  A stale ``conn`` is a no-op."""
        to_fail: List[_InFlight] = []
        with self._lock:
            event = (
                "fail"
                if replica.restarts < self.config.max_replica_restarts
                else "exhaust"
            )
            if not self._fire(replica, event, conn):
                return  # the slot moved on: respawned, stopping, or already failed
            if fatal:
                replica.fatal = fatal
            self._stats["replica_failures"] += 1
            orphans = [
                (ticket, self._inflight.pop(ticket))
                for ticket in sorted(replica.assigned)
                if ticket in self._inflight
            ]
            replica.assigned.clear()
            now = time.monotonic()
            for ticket, entry in orphans:
                if entry.attempts >= self.config.retry.max_retries:
                    to_fail.append(entry)
                else:
                    self._schedule_retry(ticket, entry, now)
            if replica.state == "backoff":
                replica.respawn_at = now + self._restart_policy.backoff(
                    replica.restarts + 1, rng=self._rng
                )
            process = replica.process
            replica.process = replica.conn = None
        supervise.stop(process, conn, grace=0.0)
        for entry in to_fail:
            self._resolve(
                entry,
                PlanError(
                    entry.request_id,
                    "service_unavailable",
                    f"request failed on replica {replica.index} ({reason}) and "
                    f"exhausted its {self.config.retry.max_retries}-retry budget",
                ),
            )
        self._dispatch_waiting()

    # ------------------------------------------------------------------ #
    # Internals — supervision loop
    # ------------------------------------------------------------------ #
    def _supervise_loop(self) -> None:
        while not self._stop_event.wait(self.config.supervise_interval_s):
            try:
                self._supervise_once()
            except Exception:
                # The supervisor must survive anything; a broken scan only
                # delays detection to the next tick.
                pass

    def _supervise_once(self) -> None:
        now = time.monotonic()
        failed = []
        with self._lock:
            for replica in self._replicas:
                if replica.state == "backoff" and now >= replica.respawn_at:
                    replica.restarts += 1
                    self._stats["restarts"] += 1
                    self._fire(replica, "respawn")
                    continue
                oldest = min(
                    (
                        self._inflight[t].assigned_at
                        for t in replica.assigned
                        if t in self._inflight
                    ),
                    default=None,
                )
                reason = _failure_reason(replica, now, oldest, self.config)
                if reason is not None:
                    failed.append((replica, replica.conn, reason))
        for replica, conn, reason in failed:
            self._fail_replica(replica, reason, conn)
        self._control_tick(now)
        # Bound the residency of unassigned work so a fully-down fleet still
        # terminates every future.
        expired: List[_InFlight] = []
        with self._lock:
            for ticket in list(self._waiting):
                entry = self._waiting[ticket]
                if now - entry.created_at > self.config.queue_wait_timeout_s:
                    expired.append(self._waiting.pop(ticket))
        for entry in expired:
            self._resolve(
                entry,
                PlanError(
                    entry.request_id,
                    "service_unavailable",
                    f"no replica available within {self.config.queue_wait_timeout_s:.0f}s",
                ),
            )
        self._dispatch_waiting()

    # ------------------------------------------------------------------ #
    # Internals — autoscaling, brownout, drain-then-stop
    # ------------------------------------------------------------------ #
    def _control_tick(self, now: float) -> None:
        """One autoscale/brownout observation + drain-then-stop progression."""
        # Rolling and retiring slots are out of routing; once their last
        # assigned request resolves they are stopped (off this thread — a
        # replica's exit must never stall the failure detectors).  With
        # nothing assigned the replica's drain is immediate; the 5 s grace
        # only bounds a wedged exit before SIGTERM/SIGKILL.
        with self._lock:
            for replica in self._replicas:
                if replica.state in ("rolling", "retiring") and not replica.assigned:
                    self._begin_stop(replica, "drained", ("drain", 4.5), grace=5.0)
        if self._autoscaler is None and self._brownout is None:
            return
        with self._lock:
            active = sum(1 for r in self._replicas if r.desired)
            outstanding = len(self._inflight) + len(self._waiting)
            oldest = min(
                (e.assigned_at for e in self._inflight.values()), default=None
            )
            window = sorted(self._latencies)
        p95_ms = window[int(0.95 * (len(window) - 1))] if window else 0.0
        oldest_age_s = (now - oldest) if oldest is not None else 0.0
        if self._brownout is not None:
            # Normalized load: outstanding work over one batch's worth of
            # capacity per active replica.
            capacity = max(active, 1) * max(self.service_config.max_batch_size, 1)
            self._brownout.observe(outstanding / capacity, now=now)
        if self._autoscaler is not None:
            target = self._autoscaler.observe(
                FleetLoad(
                    active_replicas=active,
                    outstanding=outstanding,
                    oldest_inflight_age_s=oldest_age_s,
                    p95_ms=p95_ms,
                ),
                now=now,
            )
            self._apply_scale(target)

    def _apply_scale(self, target: int) -> None:
        """Move the desired replica set toward ``target``.

        Scale-up populates spare slots (least-restarted first) and spawns
        immediately.  Scale-down is strictly drain-before-kill: the victim
        (emptiest slot, highest index on ties — deterministic) leaves routing
        at once but is only stopped by :meth:`_control_tick` after its last
        in-flight request resolves.  Already-down slots are free victims.
        """
        if not self._started or self._stopped or self._draining:
            return
        with self._lock:
            desired = [r for r in self._replicas if r.desired]
            if len(desired) < target:
                spares = sorted(
                    (r for r in self._replicas if r.state == "spare"),
                    key=lambda r: (r.restarts, r.index),
                )
                for replica in spares[: target - len(desired)]:
                    self._stats["scale_ups"] += 1
                    self._fire(replica, "spawn")
            elif len(desired) > target:
                victims = sorted(
                    desired,
                    key=lambda r: (
                        0 if r.state in ("backoff", "exhausted") else 1,
                        len(r.assigned),
                        -r.index,
                    ),
                )
                for replica in victims[: len(desired) - target]:
                    self._stats["scale_downs"] += 1
                    self._fire(replica, "scale_down")


class _RegistryDescription:
    """Read-only ``registry.describe()`` view the HTTP frontend renders."""

    def __init__(self, entries: List[Dict]) -> None:
        self._entries = entries

    def describe(self) -> List[Dict]:
        return list(self._entries)
