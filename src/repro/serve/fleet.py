"""Self-healing replica fleet: the process shell around :mod:`repro.serve.control`.

:class:`ReplicaFleet` runs ``N`` replica worker processes, each hosting a
full :class:`~repro.serve.service.ReschedulingService` (its own queue worker
and micro-batcher) over **read-only model weights** shared through
:class:`~repro.env.shared_memory.SharedModuleWeights` pages — one weight copy
fleet-wide.  Requests go to the least-loaded replica and are retried on a
survivor when theirs fails; dead or hung replicas are restarted in place
under a per-slot budget with jittered backoff (through :mod:`repro.supervise`).

Every decision is made by :class:`~repro.serve.control.FleetControl`, a pure
state machine.  This module is its shell: it spawns processes, runs a pipe
reader per process and the supervisor thread, and waits on a
:class:`threading.Condition`.  Each entry point feeds one input to the core
under the lock with ``now = time.monotonic()``, then calls
:meth:`ReplicaFleet._apply` on the actions returned — the only place that
spawns, stops, sends or sets a future.  Readers tag each signal with their
process's generation, so the core drops a replaced process's late signals.

The contract, checked over every interleaving at small scope by
``tests/serve/test_fleet_model.py`` and end to end by ``tests/robustness``:

* **Exactly one terminal reply per admitted request** — success, partial, or
  a stable :class:`~repro.serve.schemas.PlanError` — under any interleaving
  of replica crashes, hangs, and restarts.
* **Replica failure is invisible when budget remains** — in-flight requests
  on a dead/hung replica are re-dispatched to survivors.
* **Graceful drain** — :meth:`ReplicaFleet.drain` sheds new submits with a
  ``Retry-After`` hint, finishes every admitted request (retries through
  mid-drain failures included), then stops the replicas.
* **Rolling restart** — :meth:`ReplicaFleet.rolling_restart` cycles replicas
  one at a time with the rest of the fleet carrying traffic.

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
from concurrent.futures import Future
from typing import Dict, List, NamedTuple, Optional

from .. import supervise
from ..env.shared_memory import SharedModuleWeights
from .control import LIVE, TRANSITIONS, FleetConfig, FleetControl, Resolve, Send, Spawn
from .registry import build_default_registry
from .schemas import PlanError, PlanRequest, SchemaError
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
# Fleet shell
# ---------------------------------------------------------------------- #
#: A running replica process and the parent's end of its pipe.
_Process = NamedTuple("_Process", [("process", object), ("conn", object), ("send_lock", object)])


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
        self._control = FleetControl(self.config, self.service_config.max_batch_size)
        self._lock = threading.Lock()
        #: Notified after every input the core takes.
        self._changed = threading.Condition(self._lock)
        self._tickets = itertools.count()
        self._futures: Dict[int, Future] = {}
        #: Running processes by ``(slot, generation)``.
        self._processes: Dict[tuple, _Process] = {}
        self._pids: List[Optional[int]] = [None] * len(self._control.slots)
        self._started = False
        self._stopped = False
        self._stop_event = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._planners_description: Optional[List[Dict]] = None

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
        self._step("start")
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="fleet-supervisor", daemon=True
        )
        self._supervisor.start()
        initial = self._control.slots[: self._control.initial]
        budget = timeout or self.config.ready_timeout_s
        with self._lock:
            self._changed.wait_for(
                lambda: any(s.fatal for s in initial)
                or all(s.state not in ("starting", "backoff") for s in initial),
                timeout=budget,
            )
            down = ("starting", "backoff", "exhausted")
            failed = [s for s in initial if s.fatal or s.state in down]
        if failed:
            self.stop()
            slot = failed[0]
            if slot.fatal:
                raise RuntimeError(f"replica {slot.index} failed to start:\n{slot.fatal}")
            raise RuntimeError(f"replica {slot.index} did not become ready within {budget:.0f}s")

    def stop(self, timeout: float = 5.0) -> None:
        """Hard stop: fail outstanding requests stably, exit replicas (idempotent)."""
        if not self._started or self._stopped:
            self._stopped = True
            return
        self._stopped = True
        self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
            self._supervisor = None
        # Every ticket still outstanding resolves — no caller hangs on stop.
        self._step("shutdown", timeout)
        with self._lock:
            self._changed.wait_for(
                lambda: all(s.state == "spare" for s in self._control.slots),
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
        self._step("drain")
        with self._lock:
            self._changed.wait_for(lambda: not self._control.outstanding, timeout=budget)
            dropped = self._control.outstanding
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
        for slot in self._control.slots:
            with self._lock:
                if self._stopped or (slot.state, "roll") not in TRANSITIONS:
                    continue  # spare, retiring or already stopping: nothing to roll
                actions = self._control.roll(slot.index, now=time.monotonic())
                self._changed.notify_all()
            self._apply(actions)
            with self._lock:
                back = self._changed.wait_for(
                    lambda: slot.state in ("up", "spare"), timeout=timeout_per_replica
                )
            if not back:
                raise RuntimeError(
                    f"replica {slot.index} did not come back within "
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
        ticket = next(self._tickets)
        self._futures[ticket] = future
        self._step("submit", ticket, request.request_id, request.to_dict())
        return future

    def plan(self, request: PlanRequest, timeout: Optional[float] = None) -> Reply:
        """Submit and wait — the call the HTTP handler threads use."""
        return self.submit(request).result(timeout=timeout)

    # ------------------------------------------------------------------ #
    # Introspection (the PlanningServer backend surface)
    # ------------------------------------------------------------------ #
    @property
    def is_serving(self) -> bool:
        return self._started and not self._stopped and not self._control.draining

    @property
    def is_draining(self) -> bool:
        return self._control.draining and not self._stopped

    @property
    def registry(self) -> "_RegistryDescription":
        return _RegistryDescription(self._planners_description or [])

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._control.stats)

    def latency_percentiles(self) -> Dict[str, float]:
        with self._lock:
            return self._control.latency_percentiles()

    def state(self) -> Dict:
        """The ``/v1/state`` body: per-replica health + fleet-level counters."""
        with self._lock:
            view = self._control.state(self._pids, now=time.monotonic())
        return {"serving": self.is_serving, "draining": self.is_draining, **view}

    def control_plane_stats(self) -> Dict[str, float]:
        """Flat supervision-counter summary for simulation reports:
        restarts/rolls/sheds/retries plus autoscale and brownout activity."""
        with self._lock:
            return self._control.control_plane_stats()

    def set_target_replicas(self, count: int) -> int:
        """Manually steer the replica count (clamped to the autoscale bounds).

        Requires the fleet to be built with ``FleetConfig.autoscale`` (use
        :meth:`AutoscaleConfig.manual` for bounds without automatic
        decisions).  Scale-down remains drain-before-kill: retiring replicas
        finish their in-flight work before they are stopped.  Returns the
        clamped target.
        """
        self._step("set_target", count)
        return self._control.autoscaler.target

    # ------------------------------------------------------------------ #
    # Internals — the one way in and the one way out
    # ------------------------------------------------------------------ #
    def _step(self, event: str, *args) -> None:
        """Feed one input to the core at the current time, then apply its I/O."""
        with self._lock:
            actions = getattr(self._control, event)(*args, now=time.monotonic())
            self._changed.notify_all()
        self._apply(actions)

    def _apply(self, actions) -> None:
        """Perform the core's I/O: the only place that spawns, stops, sends
        or sets a future."""
        for action in actions:
            if isinstance(action, Resolve):
                self._futures.pop(action.ticket).set_result(action.reply)
            elif isinstance(action, Send):
                self._send(action)
            elif isinstance(action, Spawn):
                self._spawn(action.slot, action.generation)
            else:
                self._stop(*action)

    def _spawn(self, index: int, generation: int) -> None:
        # Under the lock, and only if the core still wants this generation:
        # a stop applied first would otherwise leave the process orphaned.
        with self._lock:
            slot = self._control.slots[index]
            if slot.generation != generation or slot.state not in LIVE:
                return
            config = self.config
            process, conn = supervise.spawn(
                multiprocessing.get_context(config.start_method or "spawn"),
                _replica_main,
                (self.registry_factory, self.service_config, config.heartbeat_interval_s, index),
                name=f"fleet-replica-{index}",
            )
            self._processes[(index, generation)] = _Process(process, conn, threading.Lock())
            self._pids[index] = process.pid
        reader = threading.Thread(target=self._read_loop, args=(index, generation, conn),
                                  name=f"fleet-reader-{index}", daemon=True)
        reader.start()

    def _stop(self, index: int, generation: int, message, grace: float) -> None:
        """Stop one process off-thread, then report ``stopped``."""
        with self._lock:
            handle = self._processes.pop((index, generation), None)

        def stop() -> None:
            if handle is not None:
                if message is not None:
                    try:
                        with handle.send_lock:
                            handle.conn.send(message)
                    except (OSError, ValueError):
                        pass
                supervise.stop(handle.process, handle.conn, grace)
            self._step("stopped", index, generation)

        threading.Thread(target=stop, name=f"fleet-stop-{index}", daemon=True).start()

    def _send(self, action: Send) -> None:
        handle = self._processes.get((action.slot, action.generation))
        if handle is None:
            return  # already stopped: the core has re-queued the ticket
        try:
            with handle.send_lock:
                handle.conn.send(("plan", action.ticket, action.request))
        except (OSError, ValueError):
            self._step("lost", action.slot, action.generation, "pipe send failed")

    # ------------------------------------------------------------------ #
    # Internals — threads
    # ------------------------------------------------------------------ #
    def _read_loop(self, index: int, generation: int, conn) -> None:
        fatal = None
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "reply":
                self._step("reply", index, generation, message[1], message[2])
            elif kind == "heartbeat":
                self._step("heartbeat", index, generation, message[1])
            elif kind == "ready":
                if self._planners_description is None:
                    self._planners_description = message[1].get("planners")
                self._step("ready", index, generation)
            elif kind == "fatal":
                fatal = message[1]
                break
        reason = "replica reported a fatal error" if fatal else "replica process died"
        self._step("lost", index, generation, reason, fatal)

    def _supervise_loop(self) -> None:
        while not self._stop_event.wait(self.config.supervise_interval_s):
            try:
                self._supervise_once()
            except Exception:
                # The supervisor must survive anything; a failed scan is
                # counted (``stats()["supervisor_errors"]``) and the next
                # tick scans again.
                with self._lock:
                    self._control.stats["supervisor_errors"] += 1

    def _supervise_once(self) -> None:
        """One tick: report processes that died without EOF, then scan."""
        with self._lock:
            now = time.monotonic()
            actions = []
            for (index, generation), handle in list(self._processes.items()):
                if not handle.process.is_alive():
                    reason = "replica process died"
                    actions += self._control.lost(index, generation, reason, now=now)
            actions += self._control.tick(now=now)
            self._changed.notify_all()
        self._apply(actions)


class _RegistryDescription:
    """Read-only ``registry.describe()`` view the HTTP frontend renders."""

    def __init__(self, entries: List[Dict]) -> None:
        self._entries = entries

    def describe(self) -> List[Dict]:
        return list(self._entries)
