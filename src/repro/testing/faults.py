"""Deterministic fault injection for the collection and serving stacks.

Robustness claims need a harness that can *cause* the failures they promise to
survive.  This module provides seeded, composable fault plans and the hooks to
inject them at every layer the chaos suites exercise:

* **Environment faults** — :class:`FaultPlan` schedules per-env faults
  (``crash`` / ``hang`` / ``slow`` / ``raise``) at a chosen ``step()`` call;
  :func:`faulty_factories` wraps the picklable env factories handed to
  :class:`~repro.env.async_vector_env.AsyncVectorEnv`, so faults fire inside
  worker processes under both ``fork`` and ``spawn``.  A ``crash`` is a hard
  ``os._exit`` (no cleanup, like an OOM kill), a ``hang`` is an unbounded
  sleep (trips the supervisor's ``worker_timeout_s``), ``slow`` adds fixed
  per-step latency, ``raise`` surfaces an env exception through the normal
  error reply.
* **One-shot latches** — a restarted worker re-runs the same factories, so an
  unconditional crash-at-step-k would crash every replacement too and exhaust
  the restart budget.  A fault with a ``latch`` path fires only if it can
  create that file first (atomic ``open(..., "x")``), making it fire exactly
  once per latch across any number of respawns.
* **Planner faults** — :class:`FaultyPlanner` wraps any registry planner and
  raises/hangs/delays on chosen call ordinals, for testing per-request error
  isolation and deadline behavior in :class:`ReschedulingService`.
* **Autoscale/brownout faults** — :func:`slow_replica_factory` plants a
  *persistently* slow planner in one replica (``fail_calls=None`` fires on
  every call), and :class:`LoadSpike` describes a deterministic flash-crowd
  offered-load profile; together they force every autoscaler direction and
  brownout-ladder rung without randomness.
* **HTTP faults** — :func:`malformed_http_payloads` / :func:`oversized_body`
  generate the adversarial request bodies the server-hardening suite replays.

Everything is deterministic: plans are explicit or derived from a seed via
``numpy``'s ``default_rng``, and nothing here sleeps or randomizes at import
time.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Exit code of injected hard crashes — distinguishable from Python errors.
CRASH_EXIT_CODE = 23

#: How long an injected hang sleeps.  Far above any reasonable
#: ``worker_timeout_s``; the hung process is SIGKILLed by the supervisor (or
#: by ``close(terminate=True)``) long before this elapses.
HANG_SLEEP_S = 600.0

_FAULT_KINDS = ("crash", "hang", "slow", "raise")


class FaultInjected(RuntimeError):
    """The exception raised by ``raise``-kind faults (env or planner)."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``at_step`` counts ``step()`` calls on the wrapped object since its
    construction (0-based): a freshly respawned worker's envs restart the
    count.  ``latch`` (a filesystem path) makes the fault one-shot across
    respawns — it fires only if it can create the latch file first.
    """

    kind: str
    at_step: int = 0
    latency_s: float = 0.0
    message: str = "injected fault"
    latch: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {_FAULT_KINDS}")
        if self.at_step < 0:
            raise ValueError("at_step must not be negative")
        if self.kind == "slow" and self.latency_s <= 0:
            raise ValueError("slow faults need a positive latency_s")

    def acquire(self) -> bool:
        """True if the fault should fire now (claims the latch if any)."""
        if self.latch is None:
            return True
        try:
            with open(self.latch, "x"):
                return True
        except FileExistsError:
            return False


@dataclass(frozen=True)
class FaultPlan:
    """A composable schedule of faults keyed by env index.

    Plans are immutable; :meth:`merge` composes several (e.g. one worker
    crash + background slow-step latency) and :meth:`seeded` derives a
    reproducible random plan for soak runs.
    """

    faults: Tuple[Tuple[int, Fault], ...] = field(default_factory=tuple)

    # -- constructors ---------------------------------------------------- #
    @classmethod
    def single(cls, env_index: int, fault: Fault) -> "FaultPlan":
        return cls(faults=((int(env_index), fault),))

    @classmethod
    def crash(cls, env_index: int, at_step: int, latch: Optional[str] = None) -> "FaultPlan":
        return cls.single(env_index, Fault("crash", at_step, latch=latch))

    @classmethod
    def hang(cls, env_index: int, at_step: int, latch: Optional[str] = None) -> "FaultPlan":
        return cls.single(env_index, Fault("hang", at_step, latch=latch))

    @classmethod
    def slow(cls, env_index: int, at_step: int, latency_s: float) -> "FaultPlan":
        return cls.single(env_index, Fault("slow", at_step, latency_s=latency_s))

    @classmethod
    def raises(cls, env_index: int, at_step: int, message: str = "injected env fault") -> "FaultPlan":
        return cls.single(env_index, Fault("raise", at_step, message=message))

    @classmethod
    def seeded(
        cls,
        seed: int,
        num_envs: int,
        rate: float = 0.25,
        kinds: Sequence[str] = ("crash", "hang", "slow"),
        max_step: int = 6,
        latch_dir: Optional[str] = None,
        max_latency_s: float = 0.05,
    ) -> "FaultPlan":
        """A reproducible random plan: each env draws one fault with ``rate``.

        ``latch_dir`` (recommended whenever the plan contains crash/hang
        faults and the consumer restarts workers) makes those faults one-shot.
        """
        rng = np.random.default_rng(seed)
        faults: List[Tuple[int, Fault]] = []
        for env_index in range(num_envs):
            if rng.random() >= rate:
                continue
            kind = str(kinds[int(rng.integers(len(kinds)))])
            at_step = int(rng.integers(max_step + 1))
            latch = None
            if latch_dir is not None and kind in ("crash", "hang"):
                latch = os.path.join(latch_dir, f"fault-{seed}-{env_index}.latch")
            latency = float(rng.uniform(0.0, max_latency_s)) + 1e-4
            faults.append(
                (env_index, Fault(kind, at_step, latency_s=latency if kind == "slow" else 0.0,
                                  latch=latch))
            )
        return cls(faults=tuple(faults))

    # -- accessors / composition ----------------------------------------- #
    def merge(self, *others: "FaultPlan") -> "FaultPlan":
        merged = list(self.faults)
        for other in others:
            merged.extend(other.faults)
        return FaultPlan(faults=tuple(merged))

    def for_env(self, env_index: int) -> Tuple[Fault, ...]:
        return tuple(fault for index, fault in self.faults if index == env_index)

    def env_indices(self) -> List[int]:
        return sorted({index for index, _ in self.faults})


# ---------------------------------------------------------------------- #
# Environment-level injection
# ---------------------------------------------------------------------- #
class FaultyEnv:
    """Wraps an env, firing the scheduled faults on its ``step()`` calls.

    Everything except ``step`` delegates to the wrapped env, so the wrapper is
    transparent to :class:`AsyncVectorEnv` workers (reset, masks, seeding).
    """

    def __init__(self, env, faults: Sequence[Fault]) -> None:
        self._env = env
        self._faults = tuple(faults)
        self._steps = 0

    def __getattr__(self, name: str):
        return getattr(self._env, name)

    def step(self, action):
        step_index = self._steps
        self._steps += 1
        for fault in self._faults:
            if fault.at_step != step_index or not fault.acquire():
                continue
            if fault.kind == "crash":
                os._exit(CRASH_EXIT_CODE)
            elif fault.kind == "hang":
                time.sleep(HANG_SLEEP_S)
            elif fault.kind == "slow":
                time.sleep(fault.latency_s)
            elif fault.kind == "raise":
                raise FaultInjected(fault.message)
        return self._env.step(action)


def _build_faulty_env(factory: Callable[[], object], faults: Tuple[Fault, ...]):
    """Module-level builder so wrapped factories stay spawn-picklable."""
    return FaultyEnv(factory(), faults)


def faulty_factories(
    factories: Sequence[Callable[[], object]], plan: FaultPlan
) -> List[Callable[[], object]]:
    """Wrap env factories with the plan's faults (identity for fault-free envs)."""
    wrapped: List[Callable[[], object]] = []
    for env_index, factory in enumerate(factories):
        faults = plan.for_env(env_index)
        if faults:
            wrapped.append(functools.partial(_build_faulty_env, factory, faults))
        else:
            wrapped.append(factory)
    return wrapped


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
    fault then fires exactly once across any number of respawns (same
    mechanism as env-level faults).

    ``fail_calls=None`` makes the fault *persistent* — it fires on every
    call.  With ``kind="slow"`` that models a degraded replica (bad NIC,
    noisy neighbor) whose every plan call is slower than its peers: the
    canonical trigger for autoscaler scale-up on in-flight age and for
    climbing the brownout ladder without any crash involved.
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


def slow_replica_factory(
    inner: Callable[[], object],
    planner_key: str,
    latency_s: float,
) -> FaultyRegistryFactory:
    """A registry factory whose replica is *persistently* slow on one planner.

    Every ``planner_key`` call sleeps ``latency_s`` before answering — a
    degraded-but-correct replica.  Used by autoscale chaos tests to push
    in-flight request age and p95 latency over the scale-up thresholds and to
    force the service up the brownout ladder without any crashes.
    """
    return FaultyRegistryFactory(
        inner,
        planner_key,
        fail_calls=None,
        kind="slow",
        latency_s=latency_s,
    )


@dataclass(frozen=True)
class LoadSpike:
    """A deterministic flash-crowd profile: requests offered per round.

    ``offered(i)`` is ``peak`` for rounds in ``[start_round, start_round +
    duration_rounds)`` and ``base`` elsewhere — a square burst, the simplest
    shape that forces both autoscaler directions (scale-up inside the burst,
    scale-down after the cooldown once it passes).  Purely arithmetic and
    frozen, so two runs over the same profile offer identical load.
    """

    base: int = 1
    peak: int = 8
    start_round: int = 2
    duration_rounds: int = 3

    def __post_init__(self) -> None:
        if self.base < 1:
            raise ValueError("base offered load must be at least 1")
        if self.peak < self.base:
            raise ValueError("peak must be >= base")
        if self.start_round < 0 or self.duration_rounds < 1:
            raise ValueError("spike window must be non-empty and start at round >= 0")

    def offered(self, round_index: int) -> int:
        in_burst = (
            self.start_round <= round_index < self.start_round + self.duration_rounds
        )
        return self.peak if in_burst else self.base

    def schedule(self, num_rounds: int) -> Tuple[int, ...]:
        """The full per-round offered-load vector for ``num_rounds`` rounds."""
        return tuple(self.offered(i) for i in range(num_rounds))


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
