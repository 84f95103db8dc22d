"""Deterministic fault injection for the serving stack.

Robustness claims need a harness that can *cause* the failures they promise to
survive.  This module provides the hooks to inject them at every layer the
chaos suites exercise:

* **Planner faults** — :class:`FaultyPlanner` wraps any registry planner and
  raises/hangs/delays on chosen call ordinals, for testing per-request error
  isolation and deadline behavior in :class:`ReschedulingService`.  A
  ``crash`` is a hard ``os._exit`` of the hosting process (no cleanup, like
  an OOM kill) and a ``hang`` an unbounded sleep.
* **One-shot latches** — a restarted replica rebuilds the same planner, so an
  unconditional crash on call k would crash every replacement too and exhaust
  the restart budget.  A fault with a ``latch`` path fires only if it can
  create that file first (atomic ``open(..., "x")``), making it fire exactly
  once per latch across any number of respawns.
* **Persistent slowness** — ``FaultyPlanner(kind="slow", fail_calls=None)``
  delays every call: a degraded-but-correct replica.  Load bursts are plain
  ``submit`` loops in the tests that need them.
* **HTTP faults** — :func:`malformed_http_payloads` / :func:`oversized_body`
  generate the adversarial request bodies the server-hardening suite replays.

Everything is deterministic: faults fire on explicit call ordinals, and
nothing here sleeps or randomizes at import time.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Exit code of injected hard crashes — distinguishable from Python errors.
CRASH_EXIT_CODE = 23

#: How long an injected hang sleeps.  Far above any reasonable request
#: timeout; the hung replica is SIGKILLed by the fleet's supervisor long
#: before this elapses.
HANG_SLEEP_S = 600.0


class FaultInjected(RuntimeError):
    """The exception raised by ``raise``-kind planner faults."""


# ---------------------------------------------------------------------- #
# Planner-level injection
# ---------------------------------------------------------------------- #
class FaultyPlanner:
    """Wraps a registry planner, injecting faults on chosen call ordinals.

    ``fail_calls`` lists 0-based ordinals of ``plan``/``plan_batch`` calls
    (shared counter) that trigger the fault; other calls pass through.  The
    counter is thread-safe — the service's worker thread and direct test
    calls may interleave.

    The ``crash`` kind hard-exits the *hosting process* (``os._exit``), which
    inside a fleet replica simulates an OOM-killed replica mid-request.  A
    restarted replica rebuilds its registry and restarts the call counter, so
    crash/hang faults in fleet tests should carry a ``latch`` path — the
    fault then fires exactly once across any number of respawns.

    ``fail_calls=None`` makes the fault *persistent* — it fires on every
    call.  With ``kind="slow"`` that models a degraded replica (bad NIC,
    noisy neighbor) whose every plan call is slower than its peers: a
    backlog that builds, and a brownout ladder that climbs, without any
    crash involved.
    """

    def __init__(
        self,
        inner,
        fail_calls: Optional[Iterable[int]] = (0,),
        kind: str = "raise",
        latency_s: float = 0.0,
        message: str = "injected planner fault",
        latch: Optional[str] = None,
    ) -> None:
        if kind not in ("raise", "hang", "slow", "crash"):
            raise ValueError(f"unsupported planner fault kind {kind!r}")
        self._inner = inner
        self._fail_calls = (
            None if fail_calls is None else frozenset(int(i) for i in fail_calls)
        )
        self._kind = kind
        self._latency_s = latency_s
        self._message = message
        self._latch = latch
        self._calls = 0
        self._lock = threading.Lock()
        self.name = inner.name
        self.capabilities = inner.capabilities
        self.description = getattr(inner, "description", "")

    def calls(self) -> int:
        with self._lock:
            return self._calls

    def _acquire(self) -> bool:
        if self._latch is None:
            return True
        try:
            with open(self._latch, "x"):
                return True
        except FileExistsError:
            return False

    def _maybe_fault(self) -> None:
        with self._lock:
            ordinal = self._calls
            self._calls += 1
        if self._fail_calls is not None and ordinal not in self._fail_calls:
            return
        if not self._acquire():
            return
        if self._kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        elif self._kind == "hang":
            time.sleep(HANG_SLEEP_S)
        elif self._kind == "slow":
            time.sleep(self._latency_s)
        else:
            raise FaultInjected(self._message)

    def plan(self, *args, **kwargs):
        self._maybe_fault()
        return self._inner.plan(*args, **kwargs)

    def plan_batch(self, *args, **kwargs):
        self._maybe_fault()
        return self._inner.plan_batch(*args, **kwargs)

    def describe(self) -> Dict:
        return self._inner.describe()


# ---------------------------------------------------------------------- #
# Fleet-level hooks
# ---------------------------------------------------------------------- #
class FaultyRegistryFactory:
    """Picklable registry factory that plants a :class:`FaultyPlanner`.

    Wraps any registry factory (typically
    :class:`~repro.serve.fleet.DefaultRegistryFactory`) and, inside the
    replica process, replaces ``planner_key`` with a :class:`FaultyPlanner`
    carrying the given fault parameters.  Because the wrapping happens after
    the factory runs *in the replica*, faults fire under both ``fork`` and
    ``spawn`` — including ``crash`` (hard ``os._exit`` of the replica) and
    ``hang`` (planner call that outlives ``request_timeout_s``).

    Pass a ``latch`` path for crash/hang faults in fleet tests: a respawned
    replica rebuilds this registry with the call counter back at zero, so an
    unlatched fault would re-fire on every respawn and exhaust the restart
    budget instead of proving recovery.
    """

    def __init__(
        self,
        inner: Callable[[], object],
        planner_key: str,
        fail_calls: Optional[Iterable[int]] = (0,),
        kind: str = "raise",
        latency_s: float = 0.0,
        message: str = "injected planner fault",
        latch: Optional[str] = None,
    ) -> None:
        self.inner = inner
        self.planner_key = planner_key
        self.fail_calls = (
            None if fail_calls is None else tuple(int(i) for i in fail_calls)
        )
        self.kind = kind
        self.latency_s = latency_s
        self.message = message
        self.latch = latch

    def __call__(self):
        registry = self.inner()
        registry.replace(
            self.planner_key,
            FaultyPlanner(
                registry.get(self.planner_key),
                fail_calls=self.fail_calls,
                kind=self.kind,
                latency_s=self.latency_s,
                message=self.message,
                latch=self.latch,
            ),
        )
        return registry


def kill_replica(fleet, index: int) -> Optional[int]:
    """SIGKILL one fleet replica by slot index; returns the pid (or None).

    Goes through ``fleet.state()`` rather than private attributes so it kills
    exactly what the supervisor believes is running.  Returns ``None`` when
    the slot has no live process (already down or restarting).
    """
    replicas = fleet.state()["replicas"]
    if not 0 <= index < len(replicas):
        raise IndexError(f"fleet has {len(replicas)} replicas; no slot {index}")
    pid = replicas[index].get("pid")
    if pid is None:
        return None
    try:
        os.kill(pid, 9)  # SIGKILL — no cleanup, like the OOM killer
    except (ProcessLookupError, PermissionError):
        return None
    return pid


# ---------------------------------------------------------------------- #
# HTTP-level payloads
# ---------------------------------------------------------------------- #
def malformed_http_payloads() -> List[Tuple[str, bytes]]:
    """(name, body) pairs that must all yield 400 ``invalid_request``."""
    return [
        ("not-json", b"this is not json"),
        ("truncated-json", b'{"planner": "ha", "snapshot": {'),
        ("json-array", b'["not", "an", "object"]'),
        ("json-scalar", b"42"),
        ("missing-snapshot", b'{"planner": "ha"}'),
        ("bad-snapshot-type", b'{"snapshot": "nope"}'),
        ("unknown-field", b'{"snapshot": {"pms": [], "vms": []}, "bogus": 1}'),
        ("bad-utf8", b'\xff\xfe{"snapshot": {}}'),
        ("bad-deadline", b'{"snapshot": {"pms": [], "vms": []}, "deadline_ms": "soon"}'),
    ]


def oversized_body(limit_bytes: int) -> bytes:
    """A syntactically valid JSON body one byte past ``limit_bytes``."""
    filler = b"x" * max(limit_bytes - 10, 1)
    return b'{"pad": "' + filler + b'"}'
