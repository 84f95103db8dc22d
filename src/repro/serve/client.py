"""Resilient stdlib HTTP client for the planning API.

:class:`PlanningClient` is what the CLI (``repro plan --url`` /
``repro evaluate --url``) and tests use to talk to a
:class:`~repro.serve.server.PlanningServer` — single service or fleet.  Its
one job beyond ``urllib`` is *transient-failure discipline*: plan requests
are idempotent, so a 503 (shed, draining replica, restarting fleet) or a
dropped/reset connection is retried with jittered exponential backoff under
the same bounded :class:`~repro.supervise.RetryPolicy` the fleet router
uses internally.  When the server attaches a ``Retry-After`` header (or a
``retry_after_s`` body field) to a shed, the client honors it as the floor
of its next backoff instead of guessing.

Terminal errors (400/404/408/500 — bad request, unknown planner, deadline,
planner bug) are NOT retried: the reply would not change, and hammering a
server with known-bad requests is how retry storms start.
"""

from __future__ import annotations

import json
import math
import socket
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, Optional, Union

import numpy as np

from ..supervise import RetryPolicy
from .schemas import PlanError, PlanRequest, PlanResponse, response_from_dict

Reply = Union[PlanResponse, PlanError]

#: HTTP statuses worth retrying: only "try again later", never "you're wrong".
_RETRYABLE_STATUSES = frozenset({503})


class PlanningClient:
    """HTTP client with bounded, jittered, Retry-After-aware retries.

    Retries are bounded twice over: by *count* (``retry.max_retries``) and by
    *time* — ``max_elapsed_s`` caps the total attempt-plus-backoff budget, and
    when a request carries ``deadline_ms`` that deadline is the budget by
    default.  Without the time bound, ``max_retries`` jittered backoffs plus
    server ``Retry-After`` floors could keep a caller waiting long past the
    deadline it attached to the request.

    ``sleep`` and ``clock`` are injectable so tests assert backoff schedules
    and budget cutoffs without real waiting.  ``seed`` makes the jitter
    reproducible.
    """

    def __init__(
        self,
        url: str,
        retry: Optional[RetryPolicy] = None,
        timeout_s: float = 300.0,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        max_elapsed_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.url = url.rstrip("/")
        self.retry = retry if retry is not None else RetryPolicy(max_retries=3)
        self.timeout_s = timeout_s
        self.max_elapsed_s = max_elapsed_s
        self._sleep = sleep
        self._clock = clock
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    def plan(self, request: PlanRequest) -> Reply:
        """POST one plan request, retrying transient failures; returns a reply.

        Always returns a terminal :class:`PlanResponse` or :class:`PlanError`
        — exhausting the retry budget yields the last transient error (as a
        stable ``service_unavailable`` if the failure was connection-level).
        A retry whose backoff would overrun the elapsed budget (explicit
        ``max_elapsed_s``, else the request's own ``deadline_ms``) is not
        taken: the last reply is returned instead of sleeping past the
        caller's deadline.
        """
        body = request.to_json().encode("utf-8")
        budget_s = self.max_elapsed_s
        if budget_s is None and request.deadline_ms is not None:
            budget_s = float(request.deadline_ms) / 1e3
        started = self._clock()
        attempt = 0
        while True:
            reply, retry_after_s, retryable = self._attempt(request, body)
            if not retryable or attempt >= self.retry.max_retries:
                return reply
            attempt += 1
            delay = self.retry.backoff(attempt, rng=self._rng)
            if retry_after_s is not None:
                delay = max(delay, retry_after_s)
            if budget_s is not None and (
                self._clock() - started
            ) + delay >= budget_s:
                return reply
            self._sleep(delay)

    def healthz(self) -> Dict:
        """GET ``/healthz`` (no retries — health probes must not mask state)."""
        with urllib.request.urlopen(self.url + "/healthz", timeout=self.timeout_s) as r:
            return json.load(r)

    def state(self) -> Dict:
        """GET ``/v1/state`` — per-replica health and fleet counters."""
        with urllib.request.urlopen(self.url + "/v1/state", timeout=self.timeout_s) as r:
            return json.load(r)

    # ------------------------------------------------------------------ #
    def _attempt(self, request: PlanRequest, body: bytes):
        """One POST. Returns (reply, retry_after_s hint, retryable flag)."""
        http_request = urllib.request.Request(
            self.url + "/v1/plan",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(http_request, timeout=self.timeout_s) as r:
                return response_from_dict(json.load(r)), None, False
        except urllib.error.HTTPError as exc:
            retry_after_s = _parse_retry_after(exc.headers.get("Retry-After"))
            try:
                payload = json.loads(exc.read().decode("utf-8"))
                reply = response_from_dict(payload)
                if retry_after_s is None:
                    retry_after_s = _finite_delay(getattr(reply, "retry_after_s", None))
            except Exception:
                reply = PlanError(
                    request.request_id,
                    "service_unavailable" if exc.code in _RETRYABLE_STATUSES
                    else "internal_error",
                    f"server answered HTTP {exc.code} with an unreadable body",
                )
            return reply, retry_after_s, exc.code in _RETRYABLE_STATUSES
        except (urllib.error.URLError, ConnectionError, socket.timeout, OSError) as exc:
            # Connection refused/reset, DNS, timeout: the server may be
            # restarting (a redeploy) — transient by definition.
            reason = getattr(exc, "reason", exc)
            return (
                PlanError(
                    request.request_id,
                    "service_unavailable",
                    f"connection to {self.url} failed: {reason}",
                ),
                None,
                True,
            )


def _parse_retry_after(header: Optional[str]) -> Optional[float]:
    """Delta-seconds ``Retry-After`` (HTTP-date form is not emitted here)."""
    if header is None:
        return None
    try:
        return _finite_delay(float(header))
    except (TypeError, ValueError):
        return None


def _finite_delay(value: Optional[float]) -> Optional[float]:
    """A usable backoff hint: ``None`` for a missing or non-finite one (an
    ``inf`` floor would make ``time.sleep`` raise instead of returning a
    reply), and never below zero."""
    if value is None or not math.isfinite(value):
        return None
    return max(value, 0.0)
