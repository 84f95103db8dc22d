"""Chaos tests for scaling a live fleet.

The decisions — when to scale up or down, the clamp to bounds, the brownout
ladder — are pure and tested with a synthetic clock in
tests/serve/test_autoscale_unit.py and tests/serve/test_fleet_lifecycle.py,
and every interleaving of them is model-checked in
tests/serve/test_fleet_model.py.  These tests prove real replica processes
*obey* them: scale-down drains before it kills (zero dropped in-flight
requests), scaling back up revives retired slots, the exactly-one-terminal-
reply property survives SIGKILL churn *concurrent* with scaling in both
directions, and ``/v1/state`` exports the control plane.
"""

import threading
import time

import pytest

from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.serve import (
    AutoscaleConfig,
    BrownoutConfig,
    DefaultRegistryFactory,
    FleetConfig,
    PlanError,
    PlanRequest,
    PlanResponse,
    ReplicaFleet,
    RetryPolicy,
    ServiceConfig,
)

from faults import kill_replica


def small_state(seed=0):
    spec = ClusterSpec(num_pms=5, target_utilization=0.7, best_fit_fraction=0.2)
    return SnapshotGenerator(spec, seed=seed).generate()


def plan_request(seed=0, planner="ha", migration_limit=2):
    return PlanRequest.from_state(
        small_state(seed), planner=planner, migration_limit=migration_limit
    )


def fast_config(**overrides):
    defaults = dict(
        num_replicas=1,
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


def wait_until(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def desired_count(fleet):
    return sum(1 for r in fleet.state()["replicas"] if r["desired"])


class TestManualScaling:
    def test_scale_down_drains_in_flight_work_before_kill(self):
        fleet = start_fleet(
            fast_config(num_replicas=3, autoscale=AutoscaleConfig.manual(1, 3))
        )
        try:
            futures = [fleet.submit(plan_request(seed=i)) for i in range(12)]
            assert fleet.set_target_replicas(1) == 1
            # THE invariant: every request admitted before the scale-down
            # still gets a successful reply — retirement drains, never drops.
            replies = [f.result(timeout=60.0) for f in futures]
            assert all(isinstance(r, PlanResponse) for r in replies)
            stats = fleet.stats()
            assert stats["completed"] == 12
            assert stats["errors"] == 0
            assert stats["scale_downs"] == 2
            assert wait_until(lambda: desired_count(fleet) == 1)
            # The retired slots drained and stopped — never killed hot.
            assert wait_until(
                lambda: all(
                    r["state"] == "down" and r["assigned"] == 0
                    for r in fleet.state()["replicas"]
                    if not r["desired"]
                )
            )
            # Scaling back up revives the retired slots.
            assert fleet.set_target_replicas(3) == 3
            assert wait_until(lambda: desired_count(fleet) == 3)
            assert isinstance(
                fleet.submit(plan_request(seed=99)).result(timeout=60.0),
                PlanResponse,
            )
        finally:
            fleet.stop()

class TestClosedLoop:
    def test_burst_scales_up_then_cools_down_without_dropping_a_request(self):
        """The live autoscaler, not set_target_replicas: a burst of HA
        requests raises the per-replica backlog over the scale-up threshold,
        every request still gets one successful reply, and once the burst has
        drained the fleet gives the extra capacity back."""
        autoscale = AutoscaleConfig(
            min_replicas=1,
            max_replicas=3,
            scale_up_backlog=1.5,
            scale_down_backlog=0.3,
            alpha=1.0,
            cooldown_up_s=0.05,
            cooldown_down_s=0.5,
        )
        fleet = start_fleet(fast_config(autoscale=autoscale))
        try:
            request = plan_request(migration_limit=4)
            futures = [fleet.submit(request) for _ in range(64)]
            replies = [f.result(timeout=120.0) for f in futures]
            assert all(isinstance(r, PlanResponse) for r in replies), [
                (r.code, r.message) for r in replies if isinstance(r, PlanError)
            ]
            stats = fleet.state()["stats"]
            assert stats["scale_ups"] >= 1, stats
            assert stats["errors"] == 0, stats
            assert stats["submitted"] == 64
            assert (
                stats["completed"] + stats["errors"] + stats["shed"]
                == stats["submitted"]
            ), stats
            assert wait_until(
                lambda: fleet.state()["stats"]["scale_downs"] >= 1
            ), fleet.state()["stats"]
        finally:
            fleet.stop()


class TestChaosProperty:
    def test_kills_and_scaling_concurrently_yield_exactly_one_reply_each(self):
        """Property check (the PR's headline invariant): under concurrent
        SIGKILLs and scaling in both directions, every submitted request gets
        exactly ONE terminal reply, and the fleet's own counters balance."""
        fleet = start_fleet(
            fast_config(num_replicas=2, autoscale=AutoscaleConfig.manual(1, 3))
        )
        total = 24
        try:
            stop_churn = threading.Event()

            def churn():
                flip = 0
                while not stop_churn.is_set():
                    fleet.set_target_replicas(3 if flip % 2 == 0 else 1)
                    flip += 1
                    time.sleep(0.05)

            def killer():
                for _ in range(3):
                    if stop_churn.is_set():
                        return
                    # Kill whichever slot currently hosts a live pid.
                    for replica in fleet.state()["replicas"]:
                        if replica["state"] == "up" and replica["pid"]:
                            kill_replica(fleet, replica["index"])
                            break
                    time.sleep(0.15)

            threads = [
                threading.Thread(target=churn, daemon=True),
                threading.Thread(target=killer, daemon=True),
            ]
            for thread in threads:
                thread.start()
            futures = []
            for i in range(total):
                futures.append(fleet.submit(plan_request(seed=i)))
                time.sleep(0.01)  # interleave with the churn/kill threads
            replies = [f.result(timeout=120.0) for f in futures]
            stop_churn.set()
            for thread in threads:
                thread.join(timeout=5.0)

            # Exactly one terminal reply per submission — no drops, no dupes.
            assert len(replies) == total
            assert all(isinstance(r, (PlanResponse, PlanError)) for r in replies)
            stats = fleet.stats()
            assert stats["submitted"] == total
            assert stats["completed"] + stats["errors"] + stats["shed"] == total
            # Kills are absorbed by retry, not surfaced as caller errors.
            assert all(isinstance(r, PlanResponse) for r in replies), [
                (r.code, r.message) for r in replies if isinstance(r, PlanError)
            ]
        finally:
            fleet.stop()


class TestStateExport:
    def test_state_surfaces_scaling_and_brownout(self):
        fleet = start_fleet(
            fast_config(
                num_replicas=1,
                autoscale=AutoscaleConfig.manual(1, 2),
                brownout=BrownoutConfig(),
            )
        )
        try:
            assert isinstance(
                fleet.submit(plan_request()).result(timeout=60.0), PlanResponse
            )
            fleet.set_target_replicas(2)
            assert wait_until(lambda: desired_count(fleet) == 2)
            state = fleet.state()
            assert state["autoscale"]["target"] == 2
            assert state["autoscale"]["min_replicas"] == 1
            assert state["autoscale"]["max_replicas"] == 2
            assert state["brownout"]["level_name"] == "normal"
            for replica in state["replicas"]:  # replicas run no ladder of their own
                assert "brownout_level" not in replica
                assert "desired" in replica and "retiring" in replica
            assert set(state["stats"]) == {
                "submitted",
                "completed",
                "errors",
                "retried",
                "shed",
                "degraded",
                "restarts",
                "replica_failures",
                "scale_ups",
                "scale_downs",
                "supervisor_errors",
            }
            assert state["stats"]["scale_ups"] == 1
            assert desired_count(fleet) == 2
            assert state["brownout"]["level"] == 0
            assert state["brownout"]["transitions"] == 0
        finally:
            fleet.stop()
