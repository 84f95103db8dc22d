"""Chaos tests for closed-loop autoscaling and the fleet brownout ladder.

The pure decision logic is covered in tests/serve/test_autoscale_unit.py;
these tests prove real replica processes *obey* the decisions: scale-up
spawns capacity under a burst, scale-down drains before it kills (zero
dropped in-flight requests — the invariant of the whole design), and the
exactly-one-terminal-reply property survives SIGKILL churn happening
*concurrently* with scaling in both directions.
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
from repro.testing import LoadSpike, kill_replica, slow_replica_factory


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
    return fleet


def wait_until(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def desired_count(fleet):
    return sum(1 for r in fleet.state()["replicas"] if r["desired"])


class TestScaleUp:
    def test_burst_scales_the_fleet_up(self):
        # Aggressive thresholds so one burst forces a decision within a few
        # 20ms supervisor ticks; a huge down-cooldown freezes the other
        # direction for the duration of the test.  Each ``ha`` plan takes
        # 50 ms, so the 12-request backlog spans dozens of ticks instead of
        # possibly draining before the first one samples it.
        config = fast_config(
            autoscale=AutoscaleConfig(
                min_replicas=1,
                max_replicas=3,
                scale_up_backlog=1.5,
                scale_down_backlog=0.2,
                alpha=1.0,
                cooldown_up_s=0.05,
                cooldown_down_s=300.0,
            ),
        )
        fleet = start_fleet(config, slow_replica_factory(DefaultRegistryFactory(), "ha", 0.05))
        try:
            spike = LoadSpike(base=1, peak=12, start_round=0, duration_rounds=1)
            futures = [
                fleet.submit(plan_request(seed=i)) for i in range(spike.peak)
            ]
            assert wait_until(lambda: fleet.stats()["scale_ups"] >= 1)
            replies = [f.result(timeout=60.0) for f in futures]
            assert all(isinstance(r, PlanResponse) for r in replies)
            stats = fleet.stats()
            assert stats["submitted"] == spike.peak
            assert stats["completed"] == spike.peak
            assert stats["errors"] == 0
            # The scaled-up slot is a first-class replica: desired and (soon)
            # routable.
            assert desired_count(fleet) >= 2
            assert fleet.state()["autoscale"]["scale_ups"] >= 1
        finally:
            fleet.stop()

    def test_scale_down_after_quiet_cooldown(self):
        config = fast_config(
            num_replicas=2,
            autoscale=AutoscaleConfig(
                min_replicas=1,
                max_replicas=2,
                scale_up_backlog=50.0,  # never up in this test
                scale_down_backlog=0.5,
                alpha=1.0,
                cooldown_up_s=0.05,
                cooldown_down_s=0.2,
            ),
        )
        fleet = start_fleet(config)
        try:
            assert isinstance(
                fleet.submit(plan_request()).result(timeout=60.0), PlanResponse
            )
            # Quiet fleet + elapsed cooldown: the supervisor retires one
            # replica down to min_replicas and no further.
            assert wait_until(lambda: fleet.stats()["scale_downs"] >= 1)
            assert wait_until(lambda: desired_count(fleet) == 1)
            time.sleep(0.5)  # several more cooldown windows
            assert desired_count(fleet) == 1  # min_replicas is a floor
            # The retired slot fully drained and stopped — never killed hot.
            retired = [
                r for r in fleet.state()["replicas"] if not r["desired"]
            ]
            assert retired and all(r["assigned"] == 0 for r in retired)
            assert wait_until(
                lambda: all(
                    r["state"] == "down"
                    for r in fleet.state()["replicas"]
                    if not r["desired"]
                )
            )
            assert fleet.stats()["errors"] == 0
        finally:
            fleet.stop()


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
            # Scaling back up revives the retired slots.
            assert fleet.set_target_replicas(3) == 3
            assert wait_until(lambda: desired_count(fleet) == 3)
            assert isinstance(
                fleet.submit(plan_request(seed=99)).result(timeout=60.0),
                PlanResponse,
            )
        finally:
            fleet.stop()

    def test_targets_clamp_to_bounds(self):
        fleet = start_fleet(
            fast_config(num_replicas=1, autoscale=AutoscaleConfig.manual(1, 2))
        )
        try:
            assert fleet.set_target_replicas(100) == 2
            assert fleet.set_target_replicas(0) == 1
        finally:
            fleet.stop()

    def test_manual_scaling_requires_autoscale_config(self):
        fleet = start_fleet(fast_config())
        try:
            with pytest.raises(RuntimeError):
                fleet.set_target_replicas(2)
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


class TestFleetBrownout:
    def test_slow_fleet_climbs_ladder_sheds_then_recovers(self):
        # One persistently slow replica + a burst drives normalized load over
        # every rung; L3 sheds new admissions with a Retry-After hint; once
        # the queue drains the ladder steps back down to normal.
        factory = slow_replica_factory(DefaultRegistryFactory(), "ha", 0.25)
        config = fast_config(
            brownout=BrownoutConfig(
                enter_thresholds=(0.1, 0.15, 0.2),
                alpha=1.0,
                min_dwell=2,
                reduced_deadline_ms=60_000.0,  # keep L1 harmless here
            ),
        )
        fleet = start_fleet(config, factory=factory)
        try:
            requests = [plan_request(seed=i) for i in range(8)]
            futures = [fleet.submit(request) for request in requests]
            assert wait_until(
                lambda: fleet.control_plane_stats()["brownout_level"] >= 3,
                timeout=10.0,
            )
            shed_reply = fleet.submit(plan_request(seed=100)).result(timeout=5.0)
            assert isinstance(shed_reply, PlanError)
            assert shed_reply.code == "service_unavailable"
            assert shed_reply.retry_after_s is not None
            assert fleet.stats()["shed"] >= 1
            # Admitted work still completes — shedding exists to protect it.
            # (The burst's own tail may already be shed: the ladder can reach
            # L3 between two submissions, which is exactly the point.)
            replies = [f.result(timeout=120.0) for f in futures]
            admitted = [r for r in replies if not isinstance(r, PlanError)]
            assert admitted, "every burst request was shed; none admitted"
            assert all(isinstance(r, PlanResponse) for r in admitted)
            assert all(
                r.code == "service_unavailable"
                for r in replies
                if isinstance(r, PlanError)
            )
            # Recovery: with the queue drained the ladder exits rung by rung.
            assert wait_until(
                lambda: fleet.control_plane_stats()["brownout_level"] == 0,
                timeout=30.0,
            )
            state = fleet.state()
            assert state["brownout"]["transitions"] >= 2
        finally:
            fleet.stop()


class TestControlPlaneExport:
    def test_state_and_control_plane_surface_scaling_and_brownout(self):
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
            for replica in state["replicas"]:
                assert "brownout_level" in replica
                assert "desired" in replica and "retiring" in replica
            control = fleet.control_plane_stats()
            for key in (
                "submitted",
                "completed",
                "errors",
                "retried",
                "shed",
                "restarts",
                "replica_failures",
                "rolls",
                "scale_ups",
                "scale_downs",
                "active_replicas",
                "brownout_transitions",
                "brownout_level",
            ):
                assert key in control, key
            assert control["scale_ups"] == 1
            assert control["active_replicas"] == 2
        finally:
            fleet.stop()
