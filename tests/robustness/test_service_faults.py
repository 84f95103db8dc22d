"""Chaos tests for the rescheduling service: planner faults, shedding,
deadlines and stop-drain."""

import threading
import time

import pytest

from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.serve import (
    PlanError,
    PlanRequest,
    PlanResponse,
    ReschedulingService,
    ServiceConfig,
    build_default_registry,
)

from faults import FaultyPlanner
from gate import GatePlanner


def small_state(num_pms=5, seed=0):
    spec = ClusterSpec(num_pms=num_pms, target_utilization=0.7, best_fit_fraction=0.2)
    return SnapshotGenerator(spec, seed=seed).generate()


@pytest.fixture(scope="module")
def registry():
    return build_default_registry(include_slow=False, seed=0)


class TestPlannerFaultIsolation:
    def test_injected_planner_raise_is_isolated_per_request(self, registry):
        faulty = FaultyPlanner(registry.get("ha"), fail_calls=(0,))
        chaos_registry = build_default_registry(include_slow=False, seed=0)
        chaos_registry.register("faulty", faulty)
        service = ReschedulingService(chaos_registry, ServiceConfig())
        requests = [
            PlanRequest.from_state(small_state(), planner="faulty", migration_limit=2),
            PlanRequest.from_state(small_state(), planner="ha", migration_limit=2),
        ]
        replies = service.handle_many(requests)
        assert isinstance(replies[0], PlanError)
        assert replies[0].code == "internal_error"
        assert "injected planner fault" in replies[0].message
        assert isinstance(replies[1], PlanResponse)
        # The service keeps serving: the same planner works on its next call.
        follow_up = service.handle(
            PlanRequest.from_state(small_state(), planner="faulty", migration_limit=2)
        )
        assert isinstance(follow_up, PlanResponse)

    def test_faulty_batch_fails_only_its_group(self, registry):
        faulty = FaultyPlanner(registry.get("vmr2l"), fail_calls=(0,))
        chaos_registry = build_default_registry(include_slow=False, seed=0)
        chaos_registry.register("faulty-rl", faulty)
        service = ReschedulingService(chaos_registry, ServiceConfig(max_batch_size=4))
        requests = [
            PlanRequest.from_state(small_state(seed=i), planner="faulty-rl", migration_limit=2)
            for i in range(2)
        ] + [PlanRequest.from_state(small_state(seed=9), planner="ha", migration_limit=2)]
        replies = service.handle_many(requests)
        assert all(isinstance(reply, PlanError) for reply in replies[:2])
        assert all(reply.code == "internal_error" for reply in replies[:2])
        assert isinstance(replies[2], PlanResponse)


class TestAdmissionControlAndStop:
    def test_queue_overflow_sheds_with_service_unavailable(self, registry):
        service = ReschedulingService(
            registry,
            ServiceConfig(max_batch_size=1, max_queue_depth=1),
        )
        blocker = threading.Event()
        original_prepare = service._prepare

        def stalling_prepare(request):
            blocker.wait(timeout=10.0)
            return original_prepare(request)

        service._prepare = stalling_prepare
        service.start()
        try:
            futures = [
                service.submit(
                    PlanRequest.from_state(small_state(), planner="ha", migration_limit=1)
                )
                for _ in range(6)
            ]
            shed = [f for f in futures if f.done() and f.result().code == "service_unavailable"]
            assert shed, "overflowing the queue must shed immediately"
            assert service.stats()["shed"] >= len(shed)
            blocker.set()
            for future in futures:
                reply = future.result(timeout=30.0)
                assert isinstance(reply, (PlanResponse, PlanError))
        finally:
            blocker.set()
            service.stop()

    def test_stop_fails_queued_futures_instead_of_hanging(self, registry):
        service = ReschedulingService(registry, ServiceConfig(max_batch_size=1))
        release = threading.Event()
        original_prepare = service._prepare

        def stalling_prepare(request):
            release.wait(timeout=10.0)
            return original_prepare(request)

        service._prepare = stalling_prepare
        service.start()
        in_flight = service.submit(
            PlanRequest.from_state(small_state(), planner="ha", migration_limit=1)
        )
        time.sleep(0.2)  # let the worker pick up the in-flight request
        queued = [
            service.submit(
                PlanRequest.from_state(small_state(), planner="ha", migration_limit=1)
            )
            for _ in range(3)
        ]

        def stop_soon():
            time.sleep(0.1)
            release.set()

        threading.Thread(target=stop_soon, daemon=True).start()
        service.stop(timeout=10.0)
        # Every queued future resolves — promptly, with a stable error.
        for future in queued:
            reply = future.result(timeout=5.0)
            if isinstance(reply, PlanError):
                assert reply.code == "service_unavailable"
        assert in_flight.result(timeout=5.0) is not None
        with pytest.raises(RuntimeError):
            service.submit(
                PlanRequest.from_state(small_state(), planner="ha", migration_limit=1)
            )


class TestDeadlineEnforcement:
    def test_partial_policy_returns_best_effort_plan(self, registry):
        service = ReschedulingService(registry, ServiceConfig())
        request = PlanRequest.from_state(
            small_state(num_pms=8, seed=1),
            planner="vmr2l",
            migration_limit=64,
            deadline_ms=30.0,
        )
        reply = service.handle(request)
        assert isinstance(reply, PlanResponse)
        assert reply.partial, "a 30 ms budget must cut a 64-step rollout short"
        assert reply.num_migrations < 64
        assert reply.metrics["deadline_ms"] == 30.0

    def test_partial_plans_are_prefixes_of_the_full_plan(self, registry):
        state = small_state(num_pms=8, seed=2)
        service = ReschedulingService(registry, ServiceConfig())
        full = service.handle(
            PlanRequest.from_state(state, planner="vmr2l", migration_limit=8)
        )
        bounded = service.handle(
            PlanRequest.from_state(
                state, planner="vmr2l", migration_limit=8, deadline_ms=30.0
            )
        )
        assert isinstance(full, PlanResponse) and isinstance(bounded, PlanResponse)
        assert bounded.migrations == full.migrations[: len(bounded.migrations)]

    def test_queue_expired_deadline_is_rejected_at_dequeue(self):
        gated = build_default_registry(include_slow=False, seed=0)
        gate = gated.register("gate", GatePlanner(gated.get("ha")))
        service = ReschedulingService(gated, ServiceConfig(max_batch_size=4))
        with service:
            held = service.submit(
                PlanRequest.from_state(small_state(), planner="gate", migration_limit=1)
            )
            gate.wait_entered()
            # The worker is inside the gate, so this request waits in the queue
            # well past its 1 ms deadline before anything dequeues it.
            future = service.submit(
                PlanRequest.from_state(
                    small_state(), planner="ha", migration_limit=1, deadline_ms=1.0
                )
            )
            time.sleep(0.02)
            gate.open()
            reply = future.result(timeout=30.0)
            assert isinstance(held.result(timeout=30.0), PlanResponse)
        assert isinstance(reply, PlanError)
        assert reply.code == "deadline_exceeded"

    def test_tight_deadline_does_not_truncate_unconstrained_batchmates(self, registry):
        service = ReschedulingService(registry, ServiceConfig(max_batch_size=4))
        state = small_state(num_pms=8, seed=3)
        requests = [
            PlanRequest.from_state(state, planner="vmr2l", migration_limit=6),
            PlanRequest.from_state(
                state, planner="vmr2l", migration_limit=64, deadline_ms=25.0
            ),
        ]
        replies = service.handle_many(requests)
        assert isinstance(replies[0], PlanResponse)
        assert not replies[0].partial
        assert replies[0].num_migrations > 0

    def test_deadline_constrained_requests_respond_within_bounded_time(self, registry):
        service = ReschedulingService(registry, ServiceConfig())
        deadline_ms = 40.0
        start = time.perf_counter()
        reply = service.handle(
            PlanRequest.from_state(
                small_state(num_pms=8, seed=4),
                planner="vmr2l",
                migration_limit=64,
                deadline_ms=deadline_ms,
            )
        )
        elapsed_ms = (time.perf_counter() - start) * 1e3
        assert isinstance(reply, (PlanResponse, PlanError))
        # Bounded multiple of the budget: one in-flight stacked forward plus
        # plan evaluation can overshoot, but not unboundedly.
        assert elapsed_ms < deadline_ms * 25 + 1000.0

