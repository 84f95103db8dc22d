"""The rescheduling service: admit → prepare → group → ``plan_batch`` → respond.

:class:`ReschedulingService` is the one code path every frontend uses (CLI,
HTTP server, tests, benchmarks).  Requests enter in one of two ways:

* **Synchronous** — :meth:`handle` / :meth:`handle_many`.  One call is one
  burst: it is admitted (or shed) as a whole and planned at once.
* **Queued** — :meth:`start` + :meth:`submit`.  Handler threads (e.g. the
  HTTP server) enqueue requests and block on a future; a single worker
  thread blocks until the queue is non-empty, then dispatches whatever is
  already queued (up to ``max_batch_size``) with no batch window.  Requests
  that arrive while a dispatch runs are taken together by the next one, so
  concurrent single-request traffic reaches the same vectorized hot path;
  the one worker serializes all model access so the NumPy policy needs no
  locking.

After admission both go through one pipeline, :meth:`ReschedulingService._run`:
prepare each request (validate, resolve planner/state/objective, check the
time it already waited against its deadline), group greedy requests for a
``batch``-capable planner by objective and deadline, and dispatch every group
— a singleton too — through ONE ``planner.plan_batch`` call, i.e. one stacked
``TwoStagePolicy`` forward per step for the whole group.  Baselines and
sampled RL requests form singleton groups.  Per-request dispatch is
``max_batch_size=1``.

Every response carries ``latency_ms`` (receive → respond) and ``queue_ms``
(receive → dispatch), both counted from the request's own receive time, plus
``batch_size``, ``inference_ms`` and the plan-quality metrics (initial/final
objective under the requested objective function).

Overload and deadlines are first-class: ``max_queue_depth`` sheds work at
admission (``service_unavailable`` before any compute is spent), and
``request.deadline_ms`` is enforced both at dequeue AND inside deadline-capable
planners (the remaining budget is threaded into ``plan_batch`` so rollouts stop
mid-plan).  An expired budget answers with the valid prefix the rollout already
has (``PlanResponse.partial=True``).  Overload degradation beyond shedding is
the replica fleet's (:class:`~repro.serve.control.FleetControl`), which sees
the whole fleet's backlog; the service plans what it is sent.  :meth:`stop` fails any still-queued request with ``service_unavailable`` so no
caller blocks on a future that will never resolve.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

from ..baselines.base import PlanEvaluation, ReschedulingResult, evaluate_plan
from ..cluster import ClusterState
from .registry import Planner, PlannerRegistry, build_default_registry
from .schemas import PlanError, PlanRequest, PlanResponse, SchemaError

Reply = Union[PlanResponse, PlanError]


@dataclass
class ServiceConfig:
    """Micro-batching, admission and deadline knobs."""

    #: Largest number of requests fused into one ``plan_batch`` call; ``1``
    #: dispatches every request on its own.
    max_batch_size: int = 8
    #: Reject snapshots above this VM count (simple overload protection).
    max_snapshot_vms: int = 200_000
    #: Admission control: with ``> 0``, a request arriving while this many are
    #: already queued is shed immediately with a ``service_unavailable`` error
    #: instead of growing the queue without bound.  ``0`` disables shedding.
    max_queue_depth: int = 0
    #: Backoff hint attached to shed / draining rejections (``retry_after_s``
    #: on the error, ``Retry-After`` on the HTTP reply): how long a client
    #: should wait before retrying.  ``0`` omits the hint.
    shed_retry_after_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must not be negative")
        if self.shed_retry_after_s < 0:
            raise ValueError("shed_retry_after_s must not be negative")


@dataclass
class _Pending:
    """An admitted request: when the service received it and, on the queued
    path, the future its reply resolves."""

    request: PlanRequest
    enqueued_at: float
    future: Optional[Future] = None


class _Prepared(NamedTuple):
    """A validated request, ready to be grouped and dispatched."""

    index: int
    request: PlanRequest
    enqueued_at: float
    planner: Planner
    state: ClusterState
    objective: object
    deadline_at: Optional[float]


class ReschedulingService:
    """Single entry point routing every planner behind the unified schema."""

    def __init__(
        self,
        registry: Optional[PlannerRegistry] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.registry = registry if registry is not None else build_default_registry()
        self.config = config or ServiceConfig()
        self._queue: "queue.Queue[Optional[_Pending]]" = queue.Queue()
        self._worker: Optional[threading.Thread] = None
        self._running = False
        self._draining = False
        self._stats_lock = threading.Lock()
        self._latencies: "deque[float]" = deque(maxlen=512)
        self._stats: Dict[str, float] = {
            "requests": 0,
            "errors": 0,
            "batches": 0,
            "batched_requests": 0,
            "shed": 0,
            "partials": 0,
        }

    # ------------------------------------------------------------------ #
    # Synchronous API
    # ------------------------------------------------------------------ #
    def handle(self, request: PlanRequest) -> Reply:
        """Validate and plan one request (no queueing)."""
        return self.handle_many([request])[0]

    def handle_many(self, requests: Sequence[PlanRequest]) -> List[Reply]:
        """Plan several requests, micro-batching the compatible ones.

        Replies come back in request order.  A failure in one request never
        affects the others: it is returned as a :class:`PlanError` in its
        slot.
        """
        received = time.perf_counter()
        return self._run([_Pending(request, received) for request in requests])

    # ------------------------------------------------------------------ #
    # Queued micro-batching API
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the background batching worker (idempotent)."""
        if self._running:
            return
        self._running = True
        self._draining = False
        self._worker = threading.Thread(
            target=self._worker_loop, name="rescheduling-service", daemon=True
        )
        self._worker.start()

    @property
    def is_serving(self) -> bool:
        """True while the service admits new requests (started, not draining)."""
        return self._running and not self._draining

    @property
    def is_draining(self) -> bool:
        """True only mid-drain: a fully stopped service is 'stopped', not
        'draining' — probes and dashboards treat the two differently."""
        return self._running and self._draining

    def pending_count(self) -> int:
        """Requests admitted but not yet dispatched (queue depth)."""
        return self._queue.qsize()

    def begin_drain(self) -> None:
        """Stop admitting new requests; already-queued work keeps flowing.

        Idempotent.  ``submit`` rejects with a retryable ``service_unavailable``
        from this point on, while the worker continues dispatching the backlog
        — the graceful half of a shutdown.
        """
        self._draining = True

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop admitting, finish in-flight work, stop.

        Blocks until the queue is empty and the worker has exited (or
        ``timeout`` elapses — whatever is still queued then fails with
        ``service_unavailable`` rather than hanging its caller).  Idempotent,
        like :meth:`stop`.
        """
        deadline = time.monotonic() + timeout
        self.begin_drain()
        while not self._queue.empty() and time.monotonic() < deadline:
            time.sleep(0.01)
        self.stop(timeout=max(deadline - time.monotonic(), 1.0))

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the worker; queued-but-undispatched requests fail, not hang.

        Any request still in the queue when the worker exits resolves to a
        ``service_unavailable`` :class:`PlanError`, so threads blocked on
        ``submit(...).result()`` always wake up.
        """
        if self._running:
            self._running = False
            self._queue.put(None)  # wake the worker
            if self._worker is not None:
                self._worker.join(timeout=timeout)
                self._worker = None
        while True:  # drain whatever the worker never dispatched
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not None and not item.future.done():
                item.future.set_result(
                    self._error(
                        item.request,
                        "service_unavailable",
                        "service stopped before the request was dispatched",
                        retry_after_s=self.config.shed_retry_after_s or None,
                    )
                )

    def submit(self, request: PlanRequest) -> "Future[Reply]":
        """Enqueue a request for the batching worker; resolves to a reply.

        With ``max_queue_depth`` configured, a request arriving over the bound
        is shed: its future resolves immediately to a ``service_unavailable``
        error and the queue never grows.
        """
        if not self._running:
            raise RuntimeError("service is not started; call start() first")
        future: "Future[Reply]" = Future()
        depth = self.config.max_queue_depth
        if self._draining:
            future.set_result(
                self._shed(request, "service is draining and no longer admits requests")
            )
        elif depth > 0 and self._queue.qsize() >= depth:
            future.set_result(
                self._shed(
                    request,
                    f"queue depth is at the admission bound ({depth}); retry later",
                )
            )
        else:
            self._queue.put(_Pending(request, time.perf_counter(), future))
        return future

    def plan(self, request: PlanRequest, timeout: Optional[float] = None) -> Reply:
        """Submit and wait — the call handler threads use."""
        return self.submit(request).result(timeout=timeout)

    def stats(self) -> Dict[str, float]:
        with self._stats_lock:
            return dict(self._stats)

    def state(self) -> Dict:
        """One self-describing health/load snapshot (the ``/v1/state`` body);
        its latency percentiles cover the most recent successful responses."""
        with self._stats_lock:
            window = sorted(self._latencies) or [0.0]
        return {
            "serving": self.is_serving,
            "draining": self.is_draining,
            "queue_depth": self.pending_count(),
            "latency": {
                f"p{q}_ms": window[int(q / 100 * (len(window) - 1))] for q in (50, 99)
            },
            "stats": self.stats(),
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _prepare(self, request: PlanRequest):
        """Validate a request and resolve its planner/state/objective."""
        request.validate()
        planner = self.registry.get(request.planner)
        state = request.state()
        if state.num_vms > self.config.max_snapshot_vms:
            raise SchemaError(
                f"snapshot has {state.num_vms} VMs, above the service limit "
                f"of {self.config.max_snapshot_vms}",
                code="invalid_request",
            )
        objective = request.build_objective()
        return planner, state, objective

    def _run(self, items: Sequence[_Pending]) -> List[Reply]:
        """The one pipeline: prepare → deadline → group → dispatch.

        Replies come back in item order; a request that fails to prepare gets
        its error in its own slot and never affects the others.
        """
        received = time.perf_counter()
        replies: List[Optional[Reply]] = [None] * len(items)
        prepared: List[_Prepared] = []
        for index, item in enumerate(items):
            request = item.request
            try:
                # Validate (via _prepare) BEFORE touching deadline_ms: only a
                # validated request is known to carry a numeric deadline.
                planner, state, objective = self._prepare(request)
                deadline_at = None
                if request.deadline_ms is not None:
                    waited_ms = (received - item.enqueued_at) * 1e3
                    if waited_ms > float(request.deadline_ms):
                        raise SchemaError(
                            f"request waited {waited_ms:.1f} ms in queue, above its "
                            f"deadline of {request.deadline_ms} ms",
                            code="deadline_exceeded",
                        )
                    deadline_at = item.enqueued_at + float(request.deadline_ms) / 1e3
            except SchemaError as exc:
                replies[index] = self._error(request, exc.code, str(exc))
            except KeyError as exc:
                replies[index] = self._error(request, "unknown_planner", str(exc))
            except Exception as exc:  # a bad request must never crash the service
                replies[index] = self._error(
                    request, "internal_error", f"request preparation failed: {exc}"
                )
            else:
                prepared.append(
                    _Prepared(index, request, item.enqueued_at, planner, state,
                              objective, deadline_at)
                )

        for group in self._group(prepared):
            self._dispatch(group, replies, received)
        return [
            reply
            if reply is not None
            else self._error(item.request, "internal_error", "lost reply slot")
            for item, reply in zip(items, replies)
        ]

    def _group(self, prepared: List[_Prepared]) -> List[List[_Prepared]]:
        """Split prepared requests into dispatch groups.

        Greedy requests for a ``batch``-capable planner with the same
        objective spec AND the same deadline budget go to that planner's
        ``plan_batch`` as one group (the planner runs up to ``max_batch_size``
        episodes concurrently, continuously admitting queued snapshots into
        freed slots); everything else forms singleton groups.  Keying on
        ``deadline_ms`` keeps one tight deadline from truncating a whole
        micro-batch of unconstrained requests — deadline-homogeneous traffic
        still batches fully.
        """
        groups: List[List[_Prepared]] = []
        batchable: Dict[tuple, List[_Prepared]] = {}
        for item in prepared:
            request = item.request
            if request.greedy and "batch" in item.planner.capabilities:
                key = (
                    id(item.planner),
                    request.objective,
                    tuple(sorted(request.objective_params.items())),
                    request.deadline_ms,
                )
                batchable.setdefault(key, []).append(item)
            else:
                groups.append([item])
        groups.extend(batchable.values())
        return groups

    def _dispatch(
        self,
        group: List[_Prepared],
        replies: List[Optional[Reply]],
        received: float,
    ) -> None:
        """Run one ``plan_batch`` call for a group and fill the reply slots."""
        first = group[0]
        planner: Planner = first.planner
        greedy = first.request.greedy
        # The group is deadline-homogeneous (see _group); members may differ
        # by queue wait, so the earliest absolute deadline binds the call.
        deadlines = [item.deadline_at for item in group if item.deadline_at is not None]
        extra = {}
        if deadlines:
            deadline_s = min(deadlines) - time.perf_counter()
            if deadline_s <= 0:
                for item in group:
                    replies[item.index] = self._error(
                        item.request,
                        "deadline_exceeded",
                        "deadline expired before the planner was dispatched",
                    )
                return
            # Deadline-capable planners take the remaining budget and stop
            # their greedy rollouts mid-plan; others run to completion (the
            # response still reports metrics["deadline_exceeded"] honestly).
            if greedy and "deadline" in planner.capabilities:
                extra["deadline_s"] = deadline_s
        start = time.perf_counter()
        try:
            results = planner.plan_batch(
                [item.state for item in group],
                [item.request.migration_limit for item in group],
                objective=first.objective,
                greedy=greedy,
                seed=first.request.seed,
                max_active=self.config.max_batch_size,
                **extra,
            )
        except Exception as exc:  # planner bugs become structured errors
            message = f"planner {planner.name!r} failed: {exc}"
            for item in group:
                replies[item.index] = self._error(item.request, "internal_error", message)
            return
        inference_ms = (time.perf_counter() - start) * 1e3
        partials = [bool(result.info.get("partial", False)) for result in results]
        with self._stats_lock:
            self._stats["partials"] += sum(partials)
            if len(group) > 1:
                self._stats["batches"] += 1
                self._stats["batched_requests"] += len(group)
        # batch_size reports the effective concurrency (stacked-forward
        # width); a group larger than max_batch_size streams through that
        # many slots via continuous admission.
        width = min(len(group), self.config.max_batch_size)
        for item, result, partial in zip(group, results, partials):
            evaluation = evaluate_plan(item.state, result, objective=item.objective)
            replies[item.index] = self._respond(
                item, result, evaluation, received, inference_ms, width, partial
            )

    def _respond(
        self,
        item: _Prepared,
        result: ReschedulingResult,
        evaluation: PlanEvaluation,
        received: float,
        inference_ms: float,
        batch_size: int,
        partial: bool,
    ) -> PlanResponse:
        request = item.request
        latency_ms = (time.perf_counter() - item.enqueued_at) * 1e3
        metrics = {
            "latency_ms": latency_ms,
            "queue_ms": max(received - item.enqueued_at, 0.0) * 1e3,
            "inference_ms": inference_ms,
            "batch_size": batch_size,
            "planner_seconds": result.inference_seconds,
        }
        if request.deadline_ms is not None:
            metrics["deadline_ms"] = request.deadline_ms
            metrics["deadline_exceeded"] = latency_ms > request.deadline_ms
        with self._stats_lock:
            self._stats["requests"] += 1
            self._latencies.append(latency_ms)
        return PlanResponse(
            request_id=request.request_id,
            planner=result.algorithm,
            migrations=PlanResponse.migrations_payload(result.plan),
            initial_objective=evaluation.initial_objective,
            final_objective=evaluation.final_objective,
            num_applied=evaluation.num_applied,
            num_skipped=evaluation.num_skipped,
            partial=partial,
            metrics=metrics,
            info=dict(result.info),
        )

    def _shed(self, request: PlanRequest, message: str) -> PlanError:
        """A retryable ``service_unavailable`` rejection, counted as shed."""
        with self._stats_lock:
            self._stats["shed"] += 1
        return self._error(
            request,
            "service_unavailable",
            message,
            retry_after_s=self.config.shed_retry_after_s or None,
        )

    def _error(
        self,
        request: PlanRequest,
        code: str,
        message: str,
        retry_after_s: Optional[float] = None,
    ) -> PlanError:
        with self._stats_lock:
            self._stats["requests"] += 1
            self._stats["errors"] += 1
        return PlanError(
            request_id=request.request_id,
            code=code,
            message=message,
            retry_after_s=retry_after_s,
        )

    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        """Dispatch whatever is queued; block only while the queue is empty.

        ``stop()`` enqueues ``None`` to wake an idle worker.
        """
        while self._running:
            first = self._queue.get()
            if first is None:
                continue
            pending = [first]
            while len(pending) < self.config.max_batch_size:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    break
                pending.append(item)
            try:
                replies = self._run(pending)
            except Exception as exc:  # keep the worker alive no matter what
                replies = [
                    self._error(item.request, "internal_error", f"service worker error: {exc}")
                    for item in pending
                ]
            for item, reply in zip(pending, replies):
                item.future.set_result(reply)

    # Context-manager sugar for tests and the CLI.
    def __enter__(self) -> "ReschedulingService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
