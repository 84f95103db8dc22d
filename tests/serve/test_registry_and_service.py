"""Tests for the Planner registry and the micro-batching ReschedulingService."""

import json
import statistics

import pytest

from repro.cluster import apply_plan
from repro.core import ModelConfig, RiskSeekingConfig, VMR2LAgent, VMR2LConfig
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env.objectives import MixedFragmentObjective
from repro.serve import (
    PlanError,
    PlanRequest,
    PlanResponse,
    ReschedulingService,
    RLPlanner,
    ServiceConfig,
    build_default_registry,
    response_from_dict,
)

from faults import FaultyPlanner
from gate import GatePlanner


def small_state(num_pms=5, seed=0):
    spec = ClusterSpec(num_pms=num_pms, target_utilization=0.7, best_fit_fraction=0.2)
    return SnapshotGenerator(spec, seed=seed).generate()


@pytest.fixture(scope="module")
def registry():
    return build_default_registry(seed=0)


@pytest.fixture(scope="module")
def service(registry):
    return ReschedulingService(registry, ServiceConfig(max_batch_size=4))


class TestRegistry:
    def test_all_algorithms_registered(self, registry):
        assert registry.names() == [
            "ha", "mcts", "mip", "neuplan", "pop", "random", "vbpp", "vmr2l",
        ]

    def test_aliases_and_case_insensitivity(self, registry):
        assert registry.get("rl") is registry.get("vmr2l")
        assert registry.get("HA") is registry.get("ha")
        assert "agent" in registry

    def test_unknown_planner_raises_keyerror(self, registry):
        with pytest.raises(KeyError):
            registry.get("quantum")

    def test_describe_lists_capabilities(self, registry):
        described = {entry["key"]: entry for entry in registry.describe()}
        assert "batch" in described["vmr2l"]["capabilities"]
        assert described["ha"]["name"] == "HA"

    def test_fast_only_registry_drops_slow_planners(self):
        fast = build_default_registry(include_slow=False, seed=0)
        assert fast.names() == ["ha", "random", "vbpp", "vmr2l"]


def tiny_rl_planner():
    config = VMR2LConfig(
        model=ModelConfig(embed_dim=16, num_heads=2, num_blocks=1, feedforward_dim=32),
        risk_seeking=RiskSeekingConfig(num_trajectories=4, vm_quantile=0.3, pm_quantile=0.3),
    )
    return RLPlanner(VMR2LAgent(config, seed=0))


class TestRLPlannerSampled:
    """``greedy=False`` goes through the same agent path as greedy requests."""

    def test_sampled_request_leaves_the_agent_untouched(self):
        planner = tiny_rl_planner()
        agent = planner.agent
        rng, objective = agent.rng, agent.objective
        rng_state = rng.bit_generator.state
        planner.plan(
            small_state(), 3, objective=MixedFragmentObjective(weight=0.5), greedy=False, seed=5
        )
        assert agent.rng is rng and agent.rng.bit_generator.state == rng_state
        assert agent.objective is objective

    def test_same_seed_requests_with_different_objectives_match_solo(self):
        planner = tiny_rl_planner()
        state = small_state(seed=2)
        objectives = [None, MixedFragmentObjective(weight=0.5)]
        together = [
            planner.plan(state, 4, objective=objective, greedy=False, seed=7)
            for objective in objectives
        ]
        for objective, result in zip(objectives, together):
            solo = tiny_rl_planner().plan(state, 4, objective=objective, greedy=False, seed=7)
            assert solo.plan.migrations == result.plan.migrations
            assert solo.info["best_objective"] == result.info["best_objective"]

    def test_compute_plan_info_reports_the_trajectories(self):
        agent = tiny_rl_planner().agent
        result = agent.compute_plan(small_state(), 3)
        assert result.info["num_trajectories"] == 4
        assert result.info["best_objective"] >= 0.0
        assert result.info["objective_spread"] >= 0.0


class TestServiceSingleRequests:
    @pytest.mark.parametrize(
        "key", ["ha", "vbpp", "random", "mip", "pop", "mcts", "neuplan", "vmr2l"]
    )
    def test_every_planner_returns_schema_valid_response(self, service, key):
        state = small_state()
        reply = service.handle(
            PlanRequest.from_state(state, planner=key, migration_limit=3)
        )
        assert isinstance(reply, PlanResponse), getattr(reply, "message", None)
        payload = reply.to_dict()
        assert payload["ok"] is True
        assert 0.0 <= payload["final_objective"] <= 1.0
        assert payload["num_migrations"] <= 3
        assert payload["metrics"]["latency_ms"] >= 0.0
        # The returned plan must actually apply to the request snapshot.
        final_state, application = apply_plan(state.copy(), reply.plan(), skip_infeasible=True)
        assert application.num_applied == payload["num_applied"]
        # The reply, ``info`` included, survives the JSON wire unchanged.
        assert response_from_dict(json.loads(reply.to_json())) == reply

    def test_unknown_planner_is_structured_error(self, service):
        reply = service.handle(PlanRequest.from_state(small_state(), planner="quantum"))
        assert isinstance(reply, PlanError)
        assert reply.code == "unknown_planner"

    def test_invalid_request_is_structured_error(self, service):
        reply = service.handle(
            PlanRequest.from_state(small_state(), migration_limit=-2)
        )
        assert isinstance(reply, PlanError)
        assert reply.code == "invalid_request"

    @pytest.mark.parametrize("planner", ["ha", "vmr2l"])
    @pytest.mark.parametrize("cpu", [True, 3.9, float("nan")])
    def test_non_integer_snapshot_field_is_invalid_request(self, service, planner, cpu):
        # A bool or a fractional count must not be read as 1 or 3 cores.
        snapshot = small_state().to_dict()
        snapshot["vms"][0]["cpu"] = cpu
        reply = service.handle(PlanRequest(snapshot=snapshot, planner=planner))
        assert isinstance(reply, PlanError)
        assert reply.code == "invalid_request"
        assert "cpu must be an integer" in reply.message

    def test_zero_limit_noop_request(self, service):
        reply = service.handle(
            PlanRequest.from_state(small_state(), planner="ha", migration_limit=0)
        )
        assert isinstance(reply, PlanResponse)
        assert reply.num_migrations == 0
        assert reply.initial_objective == pytest.approx(reply.final_objective)

    def test_objective_routing(self, service):
        reply = service.handle(
            PlanRequest.from_state(
                small_state(), planner="ha", migration_limit=3,
                objective="mixed_fr16_fr64", objective_params={"weight": 0.5},
            )
        )
        assert isinstance(reply, PlanResponse)

    def test_bad_objective_params_rejected(self, service):
        reply = service.handle(
            PlanRequest.from_state(
                small_state(), planner="ha",
                objective="mixed_fr16_fr64", objective_params={"weight": 3.0},
            )
        )
        assert isinstance(reply, PlanError)
        assert reply.code == "invalid_request"


class TestMicroBatching:
    def test_batched_rl_plans_match_sequential(self, registry):
        states = [small_state(seed=s) for s in range(4)]
        requests = [
            PlanRequest.from_state(state, planner="vmr2l", migration_limit=4)
            for state in states
        ]
        batched_service = ReschedulingService(registry, ServiceConfig(max_batch_size=4))
        sequential_service = ReschedulingService(registry, ServiceConfig(max_batch_size=1))
        batched = batched_service.handle_many(requests)
        sequential = [
            sequential_service.handle(
                PlanRequest.from_state(state, planner="vmr2l", migration_limit=4)
            )
            for state in states
        ]
        for fused, solo in zip(batched, sequential):
            assert isinstance(fused, PlanResponse)
            assert fused.migrations == solo.migrations
            assert fused.final_objective == pytest.approx(solo.final_objective)
            assert fused.metrics["batch_size"] == 4
            assert solo.metrics["batch_size"] == 1

    def test_mixed_planner_batch_keeps_request_order(self, service):
        states = [small_state(seed=s) for s in range(3)]
        requests = [
            PlanRequest.from_state(states[0], planner="ha", migration_limit=2),
            PlanRequest.from_state(states[1], planner="vmr2l", migration_limit=2),
            PlanRequest.from_state(states[2], planner="quantum"),
        ]
        replies = service.handle_many(requests)
        assert replies[0].planner == "HA"
        assert replies[1].planner == "VMR2L"
        assert isinstance(replies[2], PlanError)
        assert [r.request_id for r in replies] == [r.request_id for r in requests]

    def test_batch_respects_max_batch_size(self, registry):
        states = [small_state(seed=s) for s in range(5)]
        service = ReschedulingService(registry, ServiceConfig(max_batch_size=2))
        replies = service.handle_many(
            [PlanRequest.from_state(s, planner="vmr2l", migration_limit=2) for s in states]
        )
        assert all(reply.metrics["batch_size"] <= 2 for reply in replies)

    def test_sampled_requests_are_not_fused(self, service):
        states = [small_state(seed=s) for s in range(2)]
        replies = service.handle_many(
            [
                PlanRequest.from_state(s, planner="vmr2l", migration_limit=2,
                                       greedy=False, seed=3)
                for s in states
            ]
        )
        assert all(reply.metrics["batch_size"] == 1 for reply in replies)


class TestQueuedService:
    def test_submit_micro_batches_concurrent_requests(self):
        gated = build_default_registry(include_slow=False, seed=0)
        gate = gated.register("gate", GatePlanner(gated.get("ha")))
        states = [small_state(seed=s) for s in range(3)]
        service = ReschedulingService(gated, ServiceConfig(max_batch_size=4))
        with service:
            held = service.submit(
                PlanRequest.from_state(small_state(), planner="gate", migration_limit=1)
            )
            gate.wait_entered()
            futures = [
                service.submit(
                    PlanRequest.from_state(state, planner="vmr2l", migration_limit=3)
                )
                for state in states
            ]
            gate.open()
            replies = [future.result(timeout=120) for future in futures]
            assert isinstance(held.result(timeout=120), PlanResponse)
        assert all(isinstance(reply, PlanResponse) for reply in replies)
        # All three queued while the worker was held, so the next dispatch
        # took them together into one model forward.
        assert {reply.metrics["batch_size"] for reply in replies} == {3}
        assert all(reply.metrics["queue_ms"] >= 0.0 for reply in replies)
        assert service.stats()["batched_requests"] >= 3

    def test_metrics_count_from_each_requests_own_enqueue(self):
        # The second request waits in the queue behind a slow plan: that wait
        # is its queue_ms, and its latency_ms (receive → respond) covers it.
        registry = build_default_registry(include_slow=False, seed=0)
        registry.replace(
            "ha", FaultyPlanner(registry.get("ha"), kind="slow", latency_s=0.3)
        )
        service = ReschedulingService(registry, ServiceConfig(max_batch_size=1))
        with service:
            futures = [
                service.submit(
                    PlanRequest.from_state(small_state(seed=s), planner="ha",
                                           migration_limit=2)
                )
                for s in range(2)
            ]
            replies = [future.result(timeout=60) for future in futures]
        assert all(isinstance(reply, PlanResponse) for reply in replies)
        assert replies[1].metrics["queue_ms"] >= 200.0
        for reply in replies:
            metrics = reply.metrics
            assert metrics["latency_ms"] >= metrics["queue_ms"] + metrics["inference_ms"]

    def test_idle_worker_dispatches_without_a_batch_window(self, registry):
        # Sequential requests on an idle service never wait for batchmates:
        # the worker takes what is queued and dispatches it at once.
        service = ReschedulingService(registry)
        state = small_state()
        with service:
            replies = [
                service.plan(
                    PlanRequest.from_state(state, planner="ha", migration_limit=1),
                    timeout=30.0,
                )
                for _ in range(20)
            ]
        assert all(isinstance(reply, PlanResponse) for reply in replies)
        assert statistics.median(reply.metrics["queue_ms"] for reply in replies) < 1.0

    def test_stop_wakes_an_idle_worker(self, registry):
        # The worker blocks on the queue with no timeout; only stop()'s
        # sentinel can end that wait.
        service = ReschedulingService(registry)
        service.start()
        worker = service._worker
        assert worker is not None and worker.is_alive()
        service.stop()
        assert not worker.is_alive()

    def test_submit_requires_started_service(self, registry):
        service = ReschedulingService(registry)
        with pytest.raises(RuntimeError):
            service.submit(PlanRequest.from_state(small_state()))

    def test_deadline_exceeded_in_queue(self, registry):
        service = ReschedulingService(registry)
        with service:
            # An effectively-zero deadline trips before dispatch.
            future = service.submit(
                PlanRequest.from_state(small_state(), planner="ha",
                                       deadline_ms=1e-6)
            )
            reply = future.result(timeout=60)
        assert isinstance(reply, PlanError)
        assert reply.code == "deadline_exceeded"

    def test_malformed_deadline_does_not_kill_the_worker(self, registry):
        # Regression: a non-numeric deadline_ms raised TypeError inside the
        # worker loop, killing the thread and hanging every later request.
        service = ReschedulingService(registry)
        with service:
            bad = PlanRequest.from_state(small_state(), planner="ha")
            bad.deadline_ms = "100"  # bypasses from_dict coercion
            reply = service.submit(bad).result(timeout=60)
            assert isinstance(reply, PlanError)
            # The worker must still serve the next request.
            good = service.submit(
                PlanRequest.from_state(small_state(), planner="ha", migration_limit=2)
            ).result(timeout=60)
        assert isinstance(good, PlanResponse)
