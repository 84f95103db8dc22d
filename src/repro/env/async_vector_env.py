"""Multi-process vectorized environment with shared-memory observations.

:class:`AsyncVectorEnv` is the multi-process sibling of
:class:`~repro.env.vector_env.SyncVectorEnv`: it runs the environments in
``num_workers`` worker processes (contiguous shards, one or more envs per
worker), *featurizes observations worker-side* and transports them through
the preallocated SoA buffers of
:mod:`repro.env.shared_memory` — per step the pipes carry only a command
tuple and the small info dicts, never a pickled ``Observation`` or
``ClusterState``.  Batched ``reset`` / ``step`` / auto-reset semantics are
identical to the synchronous backend (same
:class:`~repro.env.vector_env.VectorEnv` protocol), so a trainer driving both
under one seed collects bit-for-bit identical rollouts.

Determinism
    Workers seed env *i* with ``seed + i`` at startup (when ``seed`` is
    given) and environments are constructed from the factories in env order,
    so the same ``seed`` and ``num_workers`` reproduce identical rollouts
    across runs and across the ``fork`` and ``spawn`` start methods.  Under
    ``spawn`` the factories are pickled — use module-level callables or
    ``functools.partial`` objects, not lambdas.

Failure handling
    A worker exception is caught, formatted and sent back; under the default
    ``on_worker_failure="raise"`` policy the parent raises
    :class:`AsyncVectorEnvError` carrying the worker index and remote
    traceback after draining the in-flight exchange (pipes never desync).  A
    worker that dies outright (killed, segfault) surfaces as the same error,
    and ``worker_timeout_s`` additionally treats a worker that stops
    *replying* (hung in a step, deadlocked) as failed.  ``close()`` is
    idempotent, joins with a timeout and kills stragglers; a dead worker's
    half-closed pipe can never hang it.

Supervision (``on_worker_failure="restart"``)
    A dead or hung worker's shard is respawned in place: the replacement
    process rebuilds the shard's environments from the original factories,
    re-seeds them deterministically (``seed + env_index``, exactly like
    startup) and resets them, writing fresh observations into the same
    shared-memory slots — the exchange resumes without desyncing pipes or
    slots.  When the failure interrupted a ``step`` exchange the parent
    synthesizes that shard's step result (reward ``0.0``, ``done=True``,
    ``info["worker_restarted"]=True``) so auto-reset semantics hold and the
    trainer simply starts a new episode for those slots; other in-flight
    commands are re-issued to the replacement.  Restarts are bounded
    (``max_worker_restarts`` per worker, paced by
    :meth:`~repro.supervise.RetryPolicy.backoff` from ``restart_backoff_s``);
    past the budget the failure raises as under the ``"raise"`` policy.
    Workers are spawned and stopped through :mod:`repro.supervise`, like the
    serving fleet's replicas.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import supervise
from ..supervise import RetryPolicy
from .shared_memory import SharedObservationBuffers
from .vector_env import VectorEnv


class AsyncVectorEnvError(RuntimeError):
    """A worker process failed; carries the worker index and remote traceback(s)."""


def _worker(
    pipe,
    worker_index: int,
    env_slots: Sequence[int],
    env_fns: Sequence[Callable[[], object]],
    buffers: SharedObservationBuffers,
    seed: Optional[int],
) -> None:
    """Worker loop: own a shard of environments, serve parent commands.

    Every command is answered with exactly one ``("ok", payload)`` or
    ``("error", (worker_index, traceback))`` message, keeping the exchange in
    lock-step.  Observations/rewards/dones/masks travel through ``buffers``;
    the pipe carries only small control payloads (per-step info dicts, and —
    only at an episode boundary — the terminal observation inside its info).
    """
    envs: List[object] = []
    try:
        envs = [fn() for fn in env_fns]
        if seed is not None:
            for slot, env in zip(env_slots, envs):
                seeder = getattr(env, "seed", None)
                if callable(seeder):
                    seeder(seed + slot)
        pipe.send(("ok", None))
    except Exception:
        pipe.send(("error", (worker_index, traceback.format_exc())))
        pipe.close()
        return

    running = True
    while running:
        try:
            command, payload = pipe.recv()
        except (EOFError, OSError):
            break  # parent is gone; exit quietly
        try:
            if command == "reset":
                for slot, env in zip(env_slots, envs):
                    buffers.write_observation(slot, env.reset())
                pipe.send(("ok", None))
            elif command == "step":
                infos = []
                for slot, env, action in zip(env_slots, envs, payload):
                    observation, reward, done, info = env.step(action)
                    if done:
                        info = dict(info)
                        info["terminal_observation"] = observation
                        observation = env.reset()
                    buffers.write_observation(slot, observation)
                    buffers.write_step(slot, float(reward), bool(done))
                    infos.append(info)
                pipe.send(("ok", infos))
            elif command == "pm_mask":
                for slot, env, vm_index in zip(env_slots, envs, payload):
                    buffers.write_pm_mask(slot, env.pm_action_mask(int(vm_index)))
                pipe.send(("ok", None))
            elif command == "pm_mask_one":
                local_index, vm_index = payload
                buffers.write_pm_mask(
                    env_slots[local_index],
                    envs[local_index].pm_action_mask(int(vm_index)),
                )
                pipe.send(("ok", None))
            elif command == "joint_mask":
                for slot, env in zip(env_slots, envs):
                    buffers.write_joint_mask(slot, env.joint_action_mask())
                pipe.send(("ok", None))
            elif command == "seed":
                for slot, env in zip(env_slots, envs):
                    env.seed(int(payload) + slot)
                pipe.send(("ok", None))
            elif command == "call":
                name, args, kwargs = payload
                results = [getattr(env, name)(*args, **kwargs) for env in envs]
                pipe.send(("ok", results))
            elif command == "getattr":
                results = [getattr(env, payload) for env in envs]
                pipe.send(("ok", results))
            elif command == "close":
                pipe.send(("ok", None))
                running = False
            else:
                raise RuntimeError(f"unknown worker command {command!r}")
        except Exception:
            pipe.send(("error", (worker_index, traceback.format_exc())))

    for env in envs:
        close = getattr(env, "close", None)
        if callable(close):
            try:
                close()
            except Exception:
                pass
    pipe.close()


class AsyncVectorEnv(VectorEnv):
    """Run environments in worker processes behind the ``VectorEnv`` protocol.

    Parameters
    ----------
    env_fns:
        One factory per environment.  All environments must produce
        observations of one cluster size (the shared buffers are sized from a
        probe environment built in the parent and discarded).
    num_workers:
        Worker process count (default: one per environment).  Environments
        are sharded contiguously, so env order — and therefore rollout
        content — does not depend on the worker count.
    start_method:
        ``"fork"`` (default where available) or ``"spawn"``.  ``spawn``
        requires picklable factories and matches what macOS/Windows use.
    seed:
        When given, worker *w* seeds env *i* with ``seed + i`` at startup via
        ``env.seed`` (see the module docstring on determinism).  Restarted
        workers re-seed with the same rule, so a respawned shard's episode
        stream is reproducible.
    max_pms / max_vms:
        Shared-buffer capacities.  Default: the probe observation's sizes —
        pass explicit capacities when a state sampler can draw larger
        snapshots in later episodes (e.g. the largest training mapping).
    on_worker_failure:
        ``"raise"`` (default) keeps the historical terminal behavior;
        ``"restart"`` respawns a dead/hung worker's shard in place (see the
        module docstring on supervision).
    worker_timeout_s:
        With a value, a worker that does not reply within this many seconds
        is treated as hung and handled by the failure policy (the hung
        process is killed either way).  ``None`` (default) waits forever —
        only outright death is detected.  Must comfortably exceed the
        slowest legitimate env step.
    max_worker_restarts:
        Per-worker restart budget under ``on_worker_failure="restart"``; the
        budget is per worker *slot*, not global, so one flaky shard cannot
        starve the others.
    restart_backoff_s:
        Base of the backoff slept before respawning:
        ``RetryPolicy(backoff_s=restart_backoff_s).backoff(attempt)``, i.e.
        ``restart_backoff_s * 2**(attempt-1)`` capped at 2 s.
    """

    def __init__(
        self,
        env_fns: Sequence[Callable[[], object]],
        num_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        seed: Optional[int] = None,
        max_pms: Optional[int] = None,
        max_vms: Optional[int] = None,
        on_worker_failure: str = "raise",
        worker_timeout_s: Optional[float] = None,
        max_worker_restarts: int = 2,
        restart_backoff_s: float = 0.05,
    ) -> None:
        if not env_fns:
            raise ValueError("need at least one environment factory")
        if on_worker_failure not in ("raise", "restart"):
            raise ValueError(
                f"on_worker_failure must be 'raise' or 'restart', got {on_worker_failure!r}"
            )
        if worker_timeout_s is not None and worker_timeout_s <= 0:
            raise ValueError("worker_timeout_s must be positive (or None to disable)")
        # The per-worker restart budget; RetryPolicy rejects negatives.
        self._restart_policy = RetryPolicy(
            max_retries=max_worker_restarts, backoff_s=restart_backoff_s
        )
        self.on_worker_failure = on_worker_failure
        self.worker_timeout_s = worker_timeout_s
        self.max_worker_restarts = max_worker_restarts
        self.num_envs = len(env_fns)
        if num_workers is None:
            num_workers = self.num_envs
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = min(num_workers, self.num_envs)
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self.start_method = start_method
        ctx = multiprocessing.get_context(start_method)
        self._ctx = ctx
        self._env_fns = list(env_fns)
        self._seed = seed

        # Probe one environment in-parent to size the shared layout (unless
        # explicit capacities cover it already).
        if max_pms is None or max_vms is None:
            probe = env_fns[0]()
            try:
                observation = probe.reset()
                max_pms = max(max_pms or 0, observation.num_pms)
                max_vms = max(max_vms or 0, observation.num_vms)
            finally:
                close = getattr(probe, "close", None)
                if callable(close):
                    close()
                del probe
        self._buffers = SharedObservationBuffers(
            self.num_envs, max_pms, max_vms, context=ctx
        )

        # Contiguous shards keep global env order independent of num_workers.
        bounds = np.linspace(0, self.num_envs, self.num_workers + 1).astype(int)
        self._shards: List[range] = [
            range(int(bounds[w]), int(bounds[w + 1])) for w in range(self.num_workers)
        ]
        self._env_worker = np.empty(self.num_envs, dtype=int)
        for worker_index, shard in enumerate(self._shards):
            self._env_worker[list(shard)] = worker_index

        self._pipes: List = [None] * self.num_workers
        self._processes: List = [None] * self.num_workers
        self._closed = False
        #: Last command sent to each worker — what a restart must recover.
        self._last_sent: List[Optional[Tuple[str, object]]] = [None] * self.num_workers
        self._restarts = [0] * self.num_workers
        #: Supervision (and the reply timeout) engages only after
        #: construction: a factory that cannot build its environments will
        #: not get better by respawning, and building many envs can
        #: legitimately outlast a step-scaled timeout.
        self._constructed = False
        try:
            for worker_index in range(self.num_workers):
                self._spawn_worker(worker_index)
            self._drain()  # wait for every worker's construction ack
        except Exception:
            self.close(terminate=True)
            raise
        self._constructed = True

    # ------------------------------------------------------------------ #
    # Protocol methods
    # ------------------------------------------------------------------ #
    def reset(self) -> List:
        self._broadcast("reset")
        self._drain()
        return [self._buffers.read_observation(slot) for slot in range(self.num_envs)]

    def step(self, actions: Sequence) -> Tuple[List, np.ndarray, np.ndarray, List]:
        if len(actions) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} actions, got {len(actions)}")
        self._assert_open()
        for worker_index, shard in enumerate(self._shards):
            self._send(worker_index, "step", [actions[index] for index in shard])
        info_shards = self._drain()
        observations = [
            self._buffers.read_observation(slot) for slot in range(self.num_envs)
        ]
        rewards, dones = self._buffers.read_steps()
        infos: List = []
        for shard_infos in info_shards:
            infos.extend(shard_infos)
        return observations, rewards, dones, infos

    def pm_action_masks(self, vm_indices: Sequence[int]) -> np.ndarray:
        return self.pm_action_masks_begin(vm_indices)()

    def pm_action_masks_begin(self, vm_indices: Sequence[int]):
        """Issue the batched stage-2 mask exchange without blocking on it.

        The request goes out to every worker immediately; the returned
        ``fetch`` drains the replies and reads the shared-memory mask pages.
        The caller owns the exchange until ``fetch`` returns — no other
        command may be sent in between (the pipes are lock-step).
        """
        if len(vm_indices) != self.num_envs:
            raise ValueError(
                f"expected {self.num_envs} vm indices, got {len(vm_indices)}"
            )
        self._assert_open()
        for worker_index, shard in enumerate(self._shards):
            self._send(
                worker_index, "pm_mask", [int(vm_indices[index]) for index in shard]
            )

        def fetch() -> np.ndarray:
            self._drain()
            return self._buffers.read_pm_masks()

        return fetch

    def pm_action_mask(self, index: int, vm_index: int) -> np.ndarray:
        if not 0 <= index < self.num_envs:
            raise IndexError(f"env index {index} out of range")
        worker_index = int(self._env_worker[index])
        local_index = index - self._shards[worker_index].start
        self._assert_open()
        self._send(worker_index, "pm_mask_one", (local_index, int(vm_index)))
        self._receive(worker_index)
        return self._buffers.read_pm_mask(index)

    def joint_action_masks(self) -> List[np.ndarray]:
        self._broadcast("joint_mask")
        self._drain()
        return self._buffers.read_joint_masks()

    def call(self, method_name: str, *args, **kwargs) -> List:
        self._broadcast("call", (method_name, args, kwargs))
        results: List = []
        for shard_results in self._drain():
            results.extend(shard_results)
        return results

    def get_attr(self, name: str) -> List:
        """Read an attribute from every environment (values come back pickled)."""
        self._broadcast("getattr", name)
        results: List = []
        for shard_results in self._drain():
            results.extend(shard_results)
        return results

    def seed(self, seed: int) -> None:
        self._broadcast("seed", int(seed))
        self._drain()

    def close(self, terminate: bool = False, timeout: float = 5.0) -> None:
        """Shut the worker pool down (idempotent, bounded time).

        Sends a ``close`` command to every *live* worker, waits up to
        ``timeout`` total for the acks, then joins and finally SIGTERMs, then
        SIGKILLs any straggler; with ``terminate=True`` workers are killed at
        once (used when tearing down after an error).  Dead workers — including a
        SIGKILLed worker whose pipe is half-closed — are skipped, so a prior
        crash can never hang ``close``.
        """
        if self._closed:
            return
        self._closed = True
        if not terminate:
            notified = []
            for worker_index, (pipe, process) in enumerate(
                zip(self._pipes, self._processes)
            ):
                if pipe is None or process is None or not process.is_alive():
                    continue
                try:
                    pipe.send(("close", None))
                    notified.append(worker_index)
                except (BrokenPipeError, OSError):
                    pass
            # One shared deadline for all acks: a wedged worker costs at most
            # ``timeout`` once, not per pipe.
            deadline = time.monotonic() + timeout
            for worker_index in notified:
                remaining = max(deadline - time.monotonic(), 0.0)
                try:
                    if self._pipes[worker_index].poll(remaining):
                        self._pipes[worker_index].recv()
                except (EOFError, OSError):
                    pass
        for process, pipe in zip(self._processes, self._pipes):
            supervise.stop(process, pipe, grace=0.0 if terminate else timeout)

    def __del__(self):  # best-effort cleanup
        try:
            self.close(terminate=True, timeout=0.5)
        except Exception:
            pass

    def supervisor_stats(self) -> Dict[str, object]:
        """Restart bookkeeping: total and per-worker restart counts."""
        return {
            "policy": self.on_worker_failure,
            "restarts": int(sum(self._restarts)),
            "restarts_per_worker": list(self._restarts),
            "max_worker_restarts": self.max_worker_restarts,
        }

    # ------------------------------------------------------------------ #
    # Exchange plumbing
    # ------------------------------------------------------------------ #
    def _send(self, worker_index: int, command: str, payload=None) -> None:
        """Send one command, recording it as the worker's in-flight exchange."""
        self._last_sent[worker_index] = (command, payload)
        try:
            self._pipes[worker_index].send((command, payload))
        except (BrokenPipeError, OSError):
            # The worker is already gone; the failure surfaces (and is
            # handled) at the matching _recv, keeping the exchange lock-step.
            pass

    def _broadcast(self, command: str, payload=None) -> None:
        self._assert_open()
        for worker_index in range(self.num_workers):
            self._send(worker_index, command, payload)

    def _drain(self) -> List:
        """Collect one reply per worker (in worker order); raise on errors."""
        replies: List = []
        errors: List[Tuple[int, str]] = []
        for worker_index in range(len(self._pipes)):
            kind, payload = self._recv(worker_index)
            if kind == "error":
                errors.append(payload)
            else:
                replies.append(payload)
        if errors:
            self._raise(errors)
        return replies

    def _receive(self, worker_index: int):
        kind, payload = self._recv(worker_index)
        if kind == "error":
            self._raise([payload])
        return payload

    def _recv(self, worker_index: int):
        """One reply from ``worker_index``, applying the supervision policy.

        Death (closed pipe) and — when ``worker_timeout_s`` is set — silence
        are routed to :meth:`_handle_failure`, which either restarts the
        shard and synthesizes/recovers the in-flight exchange, or returns the
        historical ``("error", ...)`` reply.
        """
        self._assert_open()
        pipe = self._pipes[worker_index]
        try:
            if self._supervised_timeout() is not None:
                if not pipe.poll(self._supervised_timeout()):
                    return self._handle_failure(
                        worker_index,
                        f"no reply within worker_timeout_s={self.worker_timeout_s}",
                        hung=True,
                    )
            return pipe.recv()
        except (EOFError, OSError):
            process = self._processes[worker_index]
            # The EOF races ahead of process teardown: reap briefly so the
            # report carries the exit code (e.g. an injected crash's) rather
            # than a generic "pipe closed".
            process.join(timeout=1.0)
            detail = (
                f"exit code {process.exitcode}"
                if process.exitcode is not None
                else "pipe closed unexpectedly"
            )
            return self._handle_failure(worker_index, detail)

    def _supervised_timeout(self) -> Optional[float]:
        # Construction acks (the first _drain) are exempt from the timeout.
        return self.worker_timeout_s if self._constructed else None

    # ------------------------------------------------------------------ #
    # Supervision
    # ------------------------------------------------------------------ #
    def _spawn_worker(self, worker_index: int) -> None:
        """Create (or replace) the process serving ``worker_index``'s shard."""
        shard = self._shards[worker_index]
        self._processes[worker_index], self._pipes[worker_index] = supervise.spawn(
            self._ctx,
            _worker,
            (
                worker_index,
                list(shard),
                [self._env_fns[index] for index in shard],
                self._buffers,
                self._seed,
            ),
            name=f"repro-async-env-{worker_index}",
        )

    def _stop_worker(self, worker_index: int) -> None:
        """Tear a (possibly hung) worker down without waiting on it."""
        supervise.stop(self._processes[worker_index], self._pipes[worker_index], 0.0)

    def _handle_failure(self, worker_index: int, detail: str, hung: bool = False):
        """Apply the failure policy to a dead/hung worker; return its reply."""
        reason = (
            f"worker hung ({detail})" if hung else f"worker died without replying ({detail})"
        )
        supervised = self.on_worker_failure == "restart" and self._constructed
        restartable = supervised and self._restarts[worker_index] < self.max_worker_restarts
        if not restartable:
            # A hung worker must not outlive the error: kill it so close()
            # and process teardown stay bounded.
            self._stop_worker(worker_index)
            if supervised:
                reason += (
                    f"; restart budget exhausted "
                    f"({self._restarts[worker_index]}/{self.max_worker_restarts})"
                )
            return ("error", (worker_index, reason))
        return self._restart_worker(worker_index, reason)

    #: How long a *replacement* worker gets to construct + reset its shard
    #: before the restart itself counts as failed (generous: construction is
    #: factory-bound, not step-bound).
    _RESTART_ACK_TIMEOUT_S = 60.0

    def _restart_worker(self, worker_index: int, reason: str):
        """Respawn a failed worker's shard and resume the in-flight exchange.

        The replacement rebuilds its environments from the original
        factories, re-seeds them with the startup rule (``seed + env_index``)
        and resets them, refilling the shard's shared-memory observation
        slots.  The interrupted command is then recovered:

        * ``step`` — the parent synthesizes the shard's result (reward 0.0,
          ``done=True``, ``info["worker_restarted"]=True``): the episodes the
          failure destroyed end, and auto-reset hands the trainer the fresh
          episodes' first observations.
        * ``reset`` — already satisfied by the restart reset.
        * anything else (masks, ``call``, ``getattr``, ``seed``) — re-issued
          to the replacement; its reply answers the original exchange.
        """
        self._restarts[worker_index] += 1
        attempt = self._restarts[worker_index]
        self._stop_worker(worker_index)
        time.sleep(self._restart_policy.backoff(attempt))
        self._spawn_worker(worker_index)
        pipe = self._pipes[worker_index]

        def ack(stage: str):
            try:
                if not pipe.poll(self._RESTART_ACK_TIMEOUT_S):
                    raise EOFError(f"no {stage} ack")
                kind, payload = pipe.recv()
            except (EOFError, OSError) as exc:
                self._stop_worker(worker_index)
                raise AsyncVectorEnvError(
                    f"worker {worker_index} failed ({reason}) and its replacement "
                    f"did not come up: {stage} failed ({exc})"
                ) from None
            if kind == "error":
                self._stop_worker(worker_index)
                raise AsyncVectorEnvError(
                    f"worker {worker_index} failed ({reason}) and its replacement "
                    f"errored during {stage}:\n{payload[1]}"
                )
            return payload

        ack("construction")
        pipe.send(("reset", None))
        ack("shard reset")

        command, payload = self._last_sent[worker_index] or (None, None)
        shard = self._shards[worker_index]
        if command == "step":
            for slot in shard:
                self._buffers.mark_restarted(slot)
            info = {"worker_restarted": True, "worker_restarts": attempt}
            return ("ok", [dict(info) for _ in shard])
        if command in (None, "reset"):
            return ("ok", None)
        # Re-issue the interrupted command against the freshly-reset shard;
        # a repeat failure re-enters the policy (bounded by the budget).
        self._send(worker_index, command, payload)
        return self._recv(worker_index)

    def _raise(self, errors: Sequence[Tuple[int, str]]) -> None:
        details = "\n".join(f"--- worker {i} ---\n{message}" for i, message in errors)
        raise AsyncVectorEnvError(f"{len(errors)} worker(s) failed:\n{details}")

    def _assert_open(self) -> None:
        if self._closed:
            raise RuntimeError("AsyncVectorEnv is closed")
