"""Chaos tests for the replica fleet: crash/hang/kill churn, drain, expired
budgets, and the exactly-one-terminal-reply invariant they all assert.

Fleets here run small and fast (fork, tight heartbeats, short backoffs) so a
full kill-respawn-retry cycle fits in CI seconds; two spawn tests keep the
picklability contract honest, one of them for the fault factory of
``tests/faults.py``.
"""

import os
import select
import socket
import threading
import time
from multiprocessing.connection import Connection

import pytest

from repro import supervise
from repro.serve import (
    DefaultRegistryFactory,
    FleetConfig,
    PlanError,
    PlanRequest,
    PlanResponse,
    ReplicaFleet,
    RetryPolicy,
    ServiceConfig,
)
from repro.serve.fleet import _Process

from clusters import plan_request, small_state
from faults import FaultyRegistryFactory, kill_replica


def fast_config(**overrides):
    """A fleet tuned for test speed: tight heartbeats, short backoffs."""
    defaults = dict(
        num_replicas=2,
        start_method="fork",
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=2.0,
        supervise_interval_s=0.02,
        restart_backoff_s=0.02,
        retry=RetryPolicy(max_retries=3, backoff_s=0.02),
        ready_timeout_s=60.0,
        seed=0,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def start_fleet(config, factory=None, service_config=None):
    fleet = ReplicaFleet(
        factory or DefaultRegistryFactory(),
        config=config,
        service_config=service_config or ServiceConfig(),
    )
    fleet.start(timeout=60.0)
    STARTED.append(fleet)
    return fleet


#: Fleets the running test started; none may have had a failed supervisor scan.
STARTED = []


@pytest.fixture(autouse=True)
def supervisor_scans_never_fail():
    STARTED.clear()
    yield
    for fleet in STARTED:
        assert fleet.stats()["supervisor_errors"] == 0


def wait_until(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestKillChurn:
    def test_sigkill_mid_stream_loses_no_request(self):
        fleet = start_fleet(fast_config())
        try:
            futures = [fleet.submit(plan_request(seed=i)) for i in range(10)]
            assert kill_replica(fleet, 0) is not None
            futures += [fleet.submit(plan_request(seed=10 + i)) for i in range(10)]
            replies = [f.result(timeout=60.0) for f in futures]
            # Exactly one terminal reply per request, and the retry path made
            # every one of them a success despite the mid-stream kill.
            assert all(isinstance(r, PlanResponse) for r in replies)
            stats = fleet.stats()
            assert stats["submitted"] == 20
            assert stats["completed"] == 20
            assert stats["errors"] == 0
            assert stats["replica_failures"] >= 1
            # The killed slot comes back within its restart budget.
            assert wait_until(
                lambda: all(r["healthy"] for r in fleet.state()["replicas"])
            )
            assert fleet.stats()["restarts"] >= 1
        finally:
            fleet.stop()

    def test_repeated_kills_stay_within_budget(self):
        fleet = start_fleet(fast_config(max_replica_restarts=3))
        try:
            for round_index in range(2):
                assert wait_until(
                    lambda: fleet.state()["replicas"][1]["healthy"]
                ), f"replica 1 not back before round {round_index}"
                future = fleet.submit(plan_request(seed=round_index))
                kill_replica(fleet, 1)
                assert isinstance(future.result(timeout=60.0), PlanResponse)
            assert wait_until(
                lambda: all(r["healthy"] for r in fleet.state()["replicas"])
            )
            assert fleet.state()["replicas"][1]["restarts"] <= 3
        finally:
            fleet.stop()

    def test_poisoned_single_replica_fleet_terminates_every_future(self, tmp_path):
        # Every "ha" call hard-exits the replica and there is no survivor to
        # retry on: the future must still resolve — with a terminal error —
        # once the retry and restart budgets run out.
        factory = FaultyRegistryFactory(
            DefaultRegistryFactory(),
            "ha",
            fail_calls=tuple(range(64)),
            kind="crash",
        )
        fleet = start_fleet(
            fast_config(
                num_replicas=1,
                max_replica_restarts=2,
                retry=RetryPolicy(max_retries=1, backoff_s=0.02),
                queue_wait_timeout_s=10.0,
            ),
            factory=factory,
        )
        try:
            reply = fleet.submit(plan_request()).result(timeout=60.0)
            assert isinstance(reply, PlanError)
            assert reply.code == "service_unavailable"
            assert fleet.stats()["errors"] == 1
        finally:
            fleet.stop()


class TestInjectedReplicaFaults:
    def test_replica_crash_fault_is_retried_on_survivor(self, tmp_path):
        # The first "ha" plan call os._exits its replica (once, via the
        # latch); the fleet must retry it on the survivor and restart the
        # crashed slot without the caller noticing anything but latency.
        factory = FaultyRegistryFactory(
            DefaultRegistryFactory(),
            "ha",
            fail_calls=(0,),
            kind="crash",
            latch=str(tmp_path / "crash.latch"),
        )
        fleet = start_fleet(fast_config(), factory=factory)
        try:
            replies = [
                fleet.submit(plan_request(seed=i)).result(timeout=60.0)
                for i in range(4)
            ]
            assert all(isinstance(r, PlanResponse) for r in replies)
            stats = fleet.stats()
            assert stats["replica_failures"] >= 1
            assert stats["retried"] >= 1
            assert wait_until(
                lambda: all(r["healthy"] for r in fleet.state()["replicas"])
            )
        finally:
            fleet.stop()

    def test_hung_replica_is_detected_and_replaced(self, tmp_path):
        # A hang does NOT stop heartbeats (the service worker sleeps, the
        # heartbeat thread keeps beating) — detection must come from request
        # age crossing request_timeout_s.
        factory = FaultyRegistryFactory(
            DefaultRegistryFactory(),
            "ha",
            fail_calls=(0,),
            kind="hang",
            latch=str(tmp_path / "hang.latch"),
        )
        fleet = start_fleet(
            fast_config(request_timeout_s=1.0), factory=factory
        )
        try:
            reply = fleet.submit(plan_request()).result(timeout=60.0)
            assert isinstance(reply, PlanResponse)
            stats = fleet.stats()
            assert stats["replica_failures"] >= 1
            assert wait_until(
                lambda: all(r["healthy"] for r in fleet.state()["replicas"])
            )
        finally:
            fleet.stop()


class TestDrain:
    def test_drain_finishes_admitted_work_and_sheds_new(self):
        fleet = start_fleet(fast_config())
        try:
            futures = [fleet.submit(plan_request(seed=i)) for i in range(8)]
            dropped = fleet.drain(timeout=60.0)
            assert dropped == 0
            for future in futures:
                assert isinstance(future.result(timeout=1.0), PlanResponse)
            assert not fleet.is_serving
        finally:
            fleet.stop()

    def test_draining_fleet_sheds_with_retry_hint(self):
        fleet = start_fleet(fast_config())
        try:
            fleet._control.draining = True
            reply = fleet.submit(plan_request()).result(timeout=5.0)
            assert isinstance(reply, PlanError)
            assert reply.code == "service_unavailable"
            assert reply.retry_after_s is not None
            assert fleet.stats()["shed"] == 1
            fleet._control.draining = False
            ok = fleet.submit(plan_request()).result(timeout=60.0)
            assert isinstance(ok, PlanResponse)
        finally:
            fleet.stop()

    def test_drain_survives_replica_killed_mid_drain(self):
        fleet = start_fleet(fast_config())
        try:
            futures = [fleet.submit(plan_request(seed=i)) for i in range(6)]
            killer = threading.Thread(
                target=lambda: kill_replica(fleet, 0), daemon=True
            )
            killer.start()
            dropped = fleet.drain(timeout=60.0)
            killer.join(timeout=5.0)
            assert dropped == 0
            replies = [f.result(timeout=1.0) for f in futures]
            assert all(isinstance(r, (PlanResponse, PlanError)) for r in replies)
            assert all(isinstance(r, PlanResponse) for r in replies), [
                r.message for r in replies if isinstance(r, PlanError)
            ]
        finally:
            fleet.stop()

    def test_old_connection_eof_does_not_fail_the_respawned_replica(self):
        """The replaced process's reader thread can see its EOF only after
        the slot was respawned: that EOF must not mark the new replica dead
        (it would be failed and respawned against the restart budget)."""

        class ClosedConnection:
            def recv(self):
                raise EOFError

            def close(self):
                pass

        fleet = start_fleet(fast_config(num_replicas=1))
        try:
            slot = fleet._control.slots[0]
            pid = fleet.state()["replicas"][0]["pid"]
            # A reader of the previous generation ends: its EOF reaches the
            # core synchronously and is dropped there, so the checks need no
            # wait.
            old = _Process(None, ClosedConnection(), threading.Lock())
            fleet._read_loop(0, slot.generation - 1, old)
            assert slot.state == "up"
            assert fleet.state()["replicas"][0]["pid"] == pid
            assert fleet.stats()["replica_failures"] == 0
            assert fleet.stats()["restarts"] == 0
            assert isinstance(
                fleet.submit(plan_request()).result(timeout=60.0), PlanResponse
            )
        finally:
            fleet.stop()


class TestStopAndState:
    def test_stop_resolves_outstanding_futures(self):
        fleet = start_fleet(fast_config())
        futures = [fleet.submit(plan_request(seed=i)) for i in range(4)]
        fleet.stop()
        for future in futures:
            reply = future.result(timeout=5.0)
            if isinstance(reply, PlanError):
                assert reply.code == "service_unavailable"
        with pytest.raises(RuntimeError):
            fleet.submit(plan_request())
        fleet.stop()  # double stop is a no-op

    def test_stopped_fleet_cannot_restart(self):
        fleet = start_fleet(fast_config(num_replicas=1))
        fleet.stop()
        with pytest.raises(RuntimeError):
            fleet.start()

    def test_state_reports_replica_health_and_counters(self):
        fleet = start_fleet(fast_config())
        try:
            assert isinstance(
                fleet.submit(plan_request()).result(timeout=60.0), PlanResponse
            )
            state = fleet.state()
            assert state["serving"] is True
            assert state["draining"] is False
            assert len(state["replicas"]) == 2
            for replica in state["replicas"]:
                assert replica["healthy"] is True
                assert replica["state"] == "up"
                assert isinstance(replica["pid"], int)
                assert replica["restarts"] == 0
            assert state["inflight"] == 0 and state["waiting"] == 0
            assert set(state["latency"]) == {"p50_ms", "p95_ms", "p99_ms"}
            assert state["stats"]["completed"] == 1
        finally:
            fleet.stop()


class _GatedConnection(Connection):
    """A parent pipe end whose ``recv`` waits between its closed-check and
    its read until there is something to read (a message or EOF) or the end
    is closed: the window a close from another thread used to land in."""

    def __init__(self, handle: int) -> None:
        super().__init__(handle)
        self.probe = os.dup(handle)

    def _check_readable(self) -> None:
        super()._check_readable()
        while not self.closed:
            if select.select([self.probe], [], [], 0.01)[0]:
                return


class _ExitingProcess:
    """Stands in for a replica process that exits as soon as it is asked."""

    pid = 4242

    def __init__(self) -> None:
        self.alive = True

    def is_alive(self) -> bool:
        return self.alive

    def join(self, timeout=None) -> None:
        self.alive = False

    terminate = kill = join


class TestReaderOwnsThePipe:
    def test_stopping_a_replica_never_closes_the_pipe_under_its_reader(self, monkeypatch):
        # Closing the parent end from the stop thread while the reader sat in
        # recv() made the read use a None handle: TypeError ("'NoneType'
        # object cannot be interpreted as an integer") in fleet-reader-<i>.
        ours, theirs = socket.socketpair()
        conn = _GatedConnection(ours.detach())
        replica_end = Connection(theirs.detach())
        monkeypatch.setattr(supervise, "spawn", lambda *args, **kwargs: (_ExitingProcess(), conn))
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        try:
            replica_end.send(("ready", {"pid": _ExitingProcess.pid, "planners": []}))
            fleet = ReplicaFleet(None, fast_config(num_replicas=1, heartbeat_timeout_s=60.0))
            fleet.start(timeout=10.0)
            reader = next(t for t in threading.enumerate() if t.name == "fleet-reader-0")
            fleet.stop()  # returns once the core has the replica stopped
            assert not conn.closed, "the stop path closed the pipe under its reader"
            replica_end.close()  # the exited replica's end reads as EOF
            reader.join(timeout=10.0)
            assert not reader.is_alive()
            assert conn.closed  # the reader closed it on EOF
            assert [repr(error.exc_value) for error in errors] == []
        finally:
            os.close(conn.probe)
            replica_end.close()


class TestExpiredBudget:
    def test_deadline_bound_request_answers_with_a_prefix(self):
        """Through the fleet, an expired budget still answers with the valid
        prefix of the plan the same replica makes without a deadline."""
        state = small_state(seed=1)
        fleet = start_fleet(fast_config(num_replicas=1))
        try:
            full, bounded = (
                fleet.plan(
                    PlanRequest.from_state(
                        state, planner="vmr2l", migration_limit=64,
                        deadline_ms=deadline_ms,
                    ),
                    timeout=60.0,
                )
                for deadline_ms in (None, 30.0)
            )
            assert isinstance(full, PlanResponse) and not full.partial
            assert isinstance(bounded, PlanResponse), bounded
            assert bounded.partial
            assert len(bounded.migrations) < len(full.migrations)
            assert bounded.migrations == full.migrations[: len(bounded.migrations)]
        finally:
            fleet.stop()


class TestSpawnFleet:
    def test_spawn_fleet_serves_and_drains(self):
        fleet = start_fleet(
            fast_config(num_replicas=1, start_method="spawn", ready_timeout_s=120.0)
        )
        try:
            reply = fleet.submit(plan_request()).result(timeout=120.0)
            assert isinstance(reply, PlanResponse)
            assert fleet.drain(timeout=60.0) == 0
        finally:
            fleet.stop()

    def test_spawned_replica_unpickles_the_fault_factory(self, tmp_path):
        # Under spawn the factory crosses the process boundary by pickle, so
        # the replica must import it from the test harness's own module.
        # The first "ha" call crashes the replica once (latched); the
        # respawned replica rebuilds the registry and answers the retry.
        factory = FaultyRegistryFactory(
            DefaultRegistryFactory(),
            "ha",
            fail_calls=(0,),
            kind="crash",
            latch=str(tmp_path / "crash.latch"),
        )
        fleet = start_fleet(
            fast_config(num_replicas=1, start_method="spawn", ready_timeout_s=120.0),
            factory=factory,
        )
        try:
            reply = fleet.submit(plan_request()).result(timeout=120.0)
            assert isinstance(reply, PlanResponse)
            assert (tmp_path / "crash.latch").exists()
            stats = fleet.stats()
            assert stats["replica_failures"] == 1
            assert stats["retried"] >= 1
            assert fleet.state()["replicas"][0]["restarts"] == 1
        finally:
            fleet.stop()
