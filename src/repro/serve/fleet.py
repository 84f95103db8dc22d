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
workers.

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
  retries through mid-drain failures), then drains and joins the replicas.
  Zero admitted requests are dropped.
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
import os
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

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

#: Restart backoff is capped here, like the async env's worker supervisor.
_BACKOFF_CAP_S = 2.0


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
    reply_dict)``, ``("drained", stats)``, ``("fatal", traceback)``.

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
                    send(
                        (
                            "reply",
                            ticket,
                            PlanError(
                                request.request_id,
                                "service_unavailable",
                                str(exc),
                                retry_after_s=0.05,
                            ).to_dict(),
                        )
                    )
                    continue
                future.add_done_callback(replier(ticket))
            elif kind == "drain":
                # Pipe FIFO ordering guarantees every "plan" the parent sent
                # before this drain has already been submitted above; drain
                # resolves all of their futures (success or stable error),
                # firing the reply callbacks, before we acknowledge.
                service.drain(timeout=float(message[1]))
                send(("drained", service.stats()))
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
    #: Base of the per-slot exponential respawn backoff (capped at 2 s).
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
    #: Fleet-level brownout ladder: L4 sheds at admission, L2 stamps reduced
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
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_replica_restarts < 0:
            raise ValueError("max_replica_restarts must not be negative")
        if self.restart_backoff_s < 0:
            raise ValueError("restart_backoff_s must not be negative")
        if self.max_inflight < 0:
            raise ValueError("max_inflight must not be negative")


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


class _Replica:
    """Supervisor-side bookkeeping for one replica slot."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.send_lock = threading.Lock()
        self.reader: Optional[threading.Thread] = None
        self.state = "down"  # down | starting | up
        self.ready = False
        self.spawned_at = 0.0
        self.last_heartbeat = 0.0
        self.queue_depth = 0
        self.handled = 0
        self.draining = False  # replica-service-side (from heartbeat)
        self.routing_paused = False  # router-side (rolling restart / retiring)
        self.desired = True  # autoscaler wants this slot populated
        self.retiring = False  # scale-down in progress: drain, then stop
        self.brownout_level = 0  # replica-service-side (from heartbeat)
        self.eof = False
        self.fatal: Optional[str] = None
        self.restarts = 0
        self.respawn_at: Optional[float] = None
        self.assigned: set = set()  # tickets in flight on this replica
        self.drained = threading.Event()
        self.pid: Optional[int] = None

    @property
    def routable(self) -> bool:
        return (
            self.state == "up"
            and self.ready
            and not self.eof
            and not self.draining
            and not self.routing_paused
        )

    def send(self, message) -> None:
        with self.send_lock:
            if self.conn is None:
                raise OSError("replica connection is closed")
            self.conn.send(message)


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
        # initial count is *desired* (spawned); scale-up re-populates spare
        # slots, scale-down retires the extras drain-before-kill.
        autoscale = self.config.autoscale
        if autoscale is not None:
            num_slots = autoscale.max_replicas
            initial = min(
                max(self.config.num_replicas, autoscale.min_replicas),
                autoscale.max_replicas,
            )
        else:
            num_slots = initial = self.config.num_replicas
        self._replicas = [_Replica(i) for i in range(num_slots)]
        for replica in self._replicas[initial:]:
            replica.desired = False
        self._autoscaler = (
            Autoscaler(autoscale, initial_replicas=initial)
            if autoscale is not None
            else None
        )
        self._brownout = (
            BrownoutController(self.config.brownout)
            if self.config.brownout is not None
            else None
        )
        self._lock = threading.Lock()
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
        self._stats: Dict[str, float] = {
            "submitted": 0,
            "completed": 0,
            "errors": 0,
            "retried": 0,
            "shed": 0,
            "restarts": 0,
            "replica_failures": 0,
            "rolls": 0,
            "scale_ups": 0,
            "scale_downs": 0,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, timeout: Optional[float] = None) -> None:
        """Spawn every replica and wait until all report ready (idempotent)."""
        if self._started and not self._stopped:
            return
        if self._stopped:
            raise RuntimeError("a stopped fleet cannot be restarted; build a new one")
        self._started = True
        for replica in self._replicas:
            if replica.desired:
                self._spawn(replica)
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="fleet-supervisor", daemon=True
        )
        self._supervisor.start()
        deadline = time.monotonic() + (timeout or self.config.ready_timeout_s)
        for replica in self._replicas:
            if not replica.desired:
                continue
            while not replica.ready and time.monotonic() < deadline:
                if replica.fatal is not None:
                    self.stop()
                    raise RuntimeError(
                        f"replica {replica.index} failed to start:\n{replica.fatal}"
                    )
                time.sleep(0.01)
            if not replica.ready:
                self.stop()
                raise RuntimeError(
                    f"replica {replica.index} did not become ready within "
                    f"{timeout or self.config.ready_timeout_s:.0f}s"
                )

    def stop(self, timeout: float = 5.0) -> None:
        """Hard stop: exit replicas, fail outstanding requests stably (idempotent)."""
        if not self._started or (self._stopped and self._supervisor is None):
            self._stopped = True
            return
        self._stopped = True
        self._draining = True
        self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
            self._supervisor = None
        for replica in self._replicas:
            self._shutdown_replica(replica, "exit", timeout=timeout)
        # Every ticket still outstanding resolves — no caller hangs on stop.
        with self._lock:
            leftovers = list(self._inflight.values()) + list(self._waiting.values())
            self._inflight.clear()
            self._waiting.clear()
            for replica in self._replicas:
                replica.assigned.clear()
        for entry in leftovers:
            self._resolve(
                entry,
                PlanError(
                    entry.request_id,
                    "service_unavailable",
                    "fleet stopped before the request completed",
                ),
            )

    def drain(self, timeout: Optional[float] = None) -> int:
        """Graceful shutdown: shed new work, finish admitted work, stop.

        Returns the number of requests that were still unfinished when the
        budget ran out (0 on a clean drain — the invariant the chaos suite
        asserts).  Retries and replica respawns keep running during the
        drain, so admitted requests survive replicas dying mid-drain.
        """
        budget = timeout if timeout is not None else self.config.drain_timeout_s
        deadline = time.monotonic() + budget
        self._draining = True
        while time.monotonic() < deadline:
            with self._lock:
                outstanding = len(self._inflight) + len(self._waiting)
            if outstanding == 0:
                break
            time.sleep(0.01)
        with self._lock:
            dropped = len(self._inflight) + len(self._waiting)
        for replica in self._replicas:
            if replica.state != "down" and replica.conn is not None:
                self._shutdown_replica(
                    replica, "drain", timeout=max(deadline - time.monotonic(), 1.0)
                )
        self.stop()
        return dropped

    def __enter__(self) -> "ReplicaFleet":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def rolling_restart(self, timeout_per_replica: float = 60.0) -> None:
        """Replace every replica one at a time without dropping requests.

        Each slot is taken out of routing, drained of its in-flight work,
        exited, respawned, and readmitted only once ready — the rest of the
        fleet carries traffic throughout.  Intentional rolls do not consume
        the failure restart budget.
        """
        for replica in self._replicas:
            if self._stopped:
                return
            if not replica.desired:
                continue  # spare autoscale slot: nothing to roll
            deadline = time.monotonic() + timeout_per_replica
            with self._lock:
                replica.routing_paused = True
            while time.monotonic() < deadline:
                with self._lock:
                    if not replica.assigned:
                        break
                time.sleep(0.01)
            self._shutdown_replica(
                replica, "drain", timeout=max(deadline - time.monotonic(), 1.0)
            )
            with self._lock:
                self._stats["rolls"] += 1
                self._spawn(replica)
                replica.routing_paused = False
            while not replica.ready and time.monotonic() < deadline:
                time.sleep(0.01)
            if not replica.ready:
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
        retry_after = self.config.shed_retry_after_s or None
        if self._draining:
            with self._lock:
                self._stats["shed"] += 1
            future.set_result(
                PlanError(
                    request.request_id,
                    "service_unavailable",
                    "fleet is draining and no longer admits requests",
                    retry_after_s=retry_after,
                )
            )
            return future
        # Brownout L4: the supervisor's smoothed-load controller says the
        # fleet is past saturation — shed *new* arrivals (the backlog keeps
        # draining) with a Retry-After hint.
        if self._brownout is not None and self._brownout.shedding:
            with self._lock:
                self._stats["shed"] += 1
            future.set_result(
                PlanError(
                    request.request_id,
                    "service_unavailable",
                    "brownout L4: fleet is shedding load; retry later",
                    retry_after_s=retry_after,
                )
            )
            return future
        now = time.monotonic()
        with self._lock:
            bound = self.config.max_inflight
            if bound > 0 and len(self._inflight) + len(self._waiting) >= bound:
                self._stats["shed"] += 1
                shed = PlanError(
                    request.request_id,
                    "service_unavailable",
                    f"fleet has {bound} requests outstanding (admission bound); "
                    "retry later",
                    retry_after_s=retry_after,
                )
            else:
                shed = None
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
            future.set_result(shed)
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
                    "state": replica.state,
                    "healthy": replica.routable,
                    "desired": replica.desired,
                    "retiring": replica.retiring,
                    "draining": replica.draining or replica.routing_paused,
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
            stats = dict(self._stats)
            active = sum(1 for r in self._replicas if r.desired)
        payload = {
            "submitted": int(stats["submitted"]),
            "completed": int(stats["completed"]),
            "errors": int(stats["errors"]),
            "retried": int(stats["retried"]),
            "shed": int(stats["shed"]),
            "restarts": int(stats["restarts"]),
            "replica_failures": int(stats["replica_failures"]),
            "rolls": int(stats["rolls"]),
            "scale_ups": int(stats["scale_ups"]),
            "scale_downs": int(stats["scale_downs"]),
            "active_replicas": active,
            "brownout_transitions": (
                len(self._brownout.transitions) if self._brownout is not None else 0
            ),
            "brownout_level": (
                self._brownout.level if self._brownout is not None else 0
            ),
        }
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
    # Internals — spawning and teardown
    # ------------------------------------------------------------------ #
    def _context(self):
        import multiprocessing

        return multiprocessing.get_context(self.config.start_method or "spawn")

    def _spawn(self, replica: _Replica) -> None:
        context = self._context()
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=_replica_main,
            args=(
                child_conn,
                self.registry_factory,
                self.service_config,
                self.config.heartbeat_interval_s,
                replica.index,
            ),
            name=f"fleet-replica-{replica.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps one end only → EOF on child death
        replica.process = process
        replica.conn = parent_conn
        replica.state = "starting"
        replica.ready = False
        replica.eof = False
        replica.fatal = None
        replica.draining = False
        replica.queue_depth = 0
        replica.spawned_at = time.monotonic()
        replica.last_heartbeat = 0.0
        replica.respawn_at = None
        replica.drained = threading.Event()
        replica.pid = process.pid
        replica.reader = threading.Thread(
            target=self._read_loop,
            args=(replica, parent_conn),
            name=f"fleet-reader-{replica.index}",
            daemon=True,
        )
        replica.reader.start()

    def _shutdown_replica(self, replica: _Replica, mode: str, timeout: float) -> None:
        """Politely stop one replica (``drain`` or ``exit``), then enforce."""
        process, conn = replica.process, replica.conn
        if conn is not None:
            try:
                if mode == "drain":
                    replica.send(("drain", max(timeout - 0.5, 0.5)))
                    replica.drained.wait(timeout=timeout)
                else:
                    replica.send(("exit", None))
            except (OSError, ValueError, BrokenPipeError):
                pass
        if process is not None:
            process.join(timeout=max(timeout, 0.5))
            if process.is_alive():
                process.terminate()
                process.join(timeout=0.5)
            if process.is_alive():
                process.kill()
                process.join(timeout=0.5)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        replica.state = "down"
        replica.ready = False
        replica.conn = None
        replica.process = None

    # ------------------------------------------------------------------ #
    # Internals — replica pipe reader
    # ------------------------------------------------------------------ #
    def _read_loop(self, replica: _Replica, conn) -> None:
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
                info = message[1]
                with self._lock:
                    replica.ready = True
                    replica.state = "up"
                    replica.last_heartbeat = time.monotonic()
                    if self._planners_description is None:
                        self._planners_description = info.get("planners")
                self._dispatch_waiting()
            elif kind == "drained":
                replica.drained.set()
            elif kind == "fatal":
                replica.fatal = message[1]
                break
        with self._lock:
            # A rolling restart may already have respawned the slot: this
            # EOF is the old process's and must not mark the new one dead.
            if replica.conn is conn or replica.conn is None:
                replica.eof = True

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
            self._requeue(entry, ticket=None)
            return
        self._resolve(entry, reply)

    # ------------------------------------------------------------------ #
    # Internals — routing, retries, resolution
    # ------------------------------------------------------------------ #
    def _requeue(self, entry: _InFlight, ticket: Optional[int]) -> None:
        """Schedule a retry attempt for an entry popped from ``_inflight``."""
        with self._lock:
            entry.attempts += 1
            entry.replica = None
            entry.due_at = time.monotonic() + self.config.retry.backoff(
                entry.attempts, rng=self._rng
            )
            self._stats["retried"] += 1
            self._waiting[next(self._tickets) if ticket is None else ticket] = entry
        self._dispatch_waiting()

    def _resolve(self, entry: _InFlight, reply: Reply) -> None:
        with self._lock:
            self._stats["completed"] += 1
            if not reply.ok:
                self._stats["errors"] += 1
            self._latencies.append((time.monotonic() - entry.created_at) * 1e3)
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
                entry = self._waiting.pop(ticket)
                entry.replica = index
                entry.assigned_at = now
                self._inflight[ticket] = entry
                self._replicas[index].assigned.add(ticket)
                to_send.append((self._replicas[index], ticket, entry))
        for replica, ticket, entry in to_send:
            request_dict = entry.request_dict
            if self._brownout is not None and self._brownout.reduce_deadline:
                # Brownout L2: stamp the reduced deadline onto the dispatched
                # copy (never the stored one — a retry after recovery should
                # run at whatever level holds *then*).
                request_dict = dict(request_dict)
                request_dict["deadline_ms"] = self._brownout.effective_deadline_ms(
                    request_dict.get("deadline_ms")
                )
            try:
                replica.send(("plan", ticket, request_dict))
            except (OSError, ValueError, BrokenPipeError):
                self._fail_replica(replica, "pipe send failed")

    def _fail_replica(self, replica: _Replica, reason: str) -> None:
        """Kill + schedule respawn of a failed replica; retry its requests."""
        to_fail: List[_InFlight] = []
        with self._lock:
            if replica.state in ("down", "stopping"):
                return  # already dead, or an intentional retirement underway
            replica.state = "down"
            replica.ready = False
            if not replica.desired:
                # A retiring replica died mid-drain: its slot goes back to
                # the spare pool clean (no respawn — it was leaving anyway).
                replica.retiring = False
                replica.routing_paused = False
            self._stats["replica_failures"] += 1
            orphans = [
                (ticket, self._inflight.pop(ticket))
                for ticket in sorted(replica.assigned)
                if ticket in self._inflight
            ]
            replica.assigned.clear()
            now = time.monotonic()
            for ticket, entry in orphans:
                entry.attempts += 1
                entry.replica = None
                if entry.attempts > self.config.retry.max_retries:
                    to_fail.append(entry)
                    continue
                entry.due_at = now + self.config.retry.backoff(
                    entry.attempts, rng=self._rng
                )
                self._stats["retried"] += 1
                self._waiting[ticket] = entry
            if (
                not self._stopped
                and replica.desired
                and replica.restarts < self.config.max_replica_restarts
            ):
                backoff = min(
                    self.config.restart_backoff_s * (2.0 ** replica.restarts),
                    _BACKOFF_CAP_S,
                ) * (1.0 + 0.5 * float(self._rng.random()))
                replica.respawn_at = now + backoff
            else:
                replica.respawn_at = None  # budget exhausted: slot stays down
        process, conn = replica.process, replica.conn
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=0.5)
            if process.is_alive():
                process.kill()
                process.join(timeout=0.5)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        replica.process = None
        replica.conn = None
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
        for replica in self._replicas:
            if replica.state == "stopping":
                continue  # intentional retirement; its own thread finishes it
            if replica.state == "down":
                if (
                    replica.respawn_at is not None
                    and now >= replica.respawn_at
                    and not self._stopped
                ):
                    with self._lock:
                        replica.restarts += 1
                        self._stats["restarts"] += 1
                        replica.respawn_at = None
                        self._spawn(replica)
                continue
            process = replica.process
            if process is None:
                continue
            if not process.is_alive() or replica.eof:
                self._fail_replica(replica, "replica process died")
                continue
            if replica.fatal is not None:
                self._fail_replica(replica, "replica reported a fatal error")
                continue
            if replica.state == "starting":
                if now - replica.spawned_at > self.config.ready_timeout_s:
                    self._fail_replica(replica, "replica never became ready")
                continue
            if (
                replica.last_heartbeat
                and now - replica.last_heartbeat > self.config.heartbeat_timeout_s
            ):
                self._fail_replica(replica, "heartbeat timed out")
                continue
            with self._lock:
                oldest = min(
                    (
                        self._inflight[t].assigned_at
                        for t in replica.assigned
                        if t in self._inflight
                    ),
                    default=None,
                )
            if oldest is not None and now - oldest > self.config.request_timeout_s:
                self._fail_replica(replica, "assigned request timed out (hang)")
                continue
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
    # Internals — autoscaling, brownout, retirement
    # ------------------------------------------------------------------ #
    def _control_tick(self, now: float) -> None:
        """One autoscale/brownout observation + retirement progression."""
        # Finish retirements whose in-flight work has fully drained.  The
        # actual stop runs off-thread: a replica drain must never stall the
        # supervisor's failure detectors.
        to_stop: List[_Replica] = []
        with self._lock:
            for replica in self._replicas:
                if replica.retiring and replica.state == "up" and not replica.assigned:
                    replica.state = "stopping"
                    to_stop.append(replica)
        for replica in to_stop:
            threading.Thread(
                target=self._finish_retirement,
                args=(replica,),
                name=f"fleet-retire-{replica.index}",
                daemon=True,
            ).start()
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

        Scale-up re-populates spare slots (least-restarted first) and spawns
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
                    (r for r in self._replicas if not r.desired and not r.retiring),
                    key=lambda r: (r.restarts, r.index),
                )
                for replica in spares[: target - len(desired)]:
                    replica.desired = True
                    replica.retiring = False
                    replica.routing_paused = False
                    replica.respawn_at = None
                    self._stats["scale_ups"] += 1
                    self._spawn(replica)
            elif len(desired) > target:
                victims = sorted(
                    desired,
                    key=lambda r: (
                        0 if r.state == "down" else 1,
                        len(r.assigned),
                        -r.index,
                    ),
                )
                for replica in victims[: len(desired) - target]:
                    replica.desired = False
                    self._stats["scale_downs"] += 1
                    if replica.state == "down":
                        replica.respawn_at = None  # cancel any pending respawn
                    else:
                        replica.retiring = True
                        replica.routing_paused = True

    def _finish_retirement(self, replica: _Replica) -> None:
        """Drain-then-stop one retiring replica, off the supervisor thread."""
        try:
            self._shutdown_replica(replica, "drain", timeout=5.0)
        finally:
            with self._lock:
                replica.retiring = False
                replica.routing_paused = False
                replica.respawn_at = None


class _RegistryDescription:
    """Read-only ``registry.describe()`` view the HTTP frontend renders."""

    def __init__(self, entries: List[Dict]) -> None:
        self._entries = entries

    def describe(self) -> List[Dict]:
        return list(self._entries)
