"""OnlineRescheduler: determinism, StepCache parity, failure handling."""

import json

import pytest

from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.serve import PlanError, ReschedulingService, build_default_registry
from repro.sim import (
    ChurnSpec,
    LivingCluster,
    OnlineRescheduler,
    SimulationConfig,
    SyntheticTrace,
    invalidation_rate,
    load_trace,
    save_trace,
    steady_state_mean,
)

from oracles import FreshRLPlanner, assert_recounted

DAY_S = 86400.0


def churn_events(seed=0, horizon_s=DAY_S, churn=None):
    churn = churn or ChurnSpec(drains_per_day=4.0, failures_per_day=2.0, adds_per_day=6.0,
                               resizes_per_hour=2.0)
    return SyntheticTrace(churn, seed=seed + 1).generate(horizon_s)


def build_cluster(seed=0, num_pms=6, horizon_s=DAY_S, churn=None, events=None):
    spec = ClusterSpec(num_pms=num_pms, target_utilization=0.6, best_fit_fraction=0.3)
    state = SnapshotGenerator(spec, seed=seed).generate()
    if events is None:
        events = churn_events(seed, horizon_s, churn)
    return LivingCluster(state, events, seed=seed + 2)


def build_service(seed=0, registry=None):
    return ReschedulingService(
        registry or build_default_registry(include_slow=False, seed=seed)
    )


def run_simulation(planner="ha", seed=0, max_rounds=6, on_round=None, registry=None,
                   events=None):
    cluster = build_cluster(seed=seed, events=events)
    service = build_service(registry=registry)
    config = SimulationConfig(
        planner=planner, migration_limit=4, replan_every_s=3600.0,
        plan_delay_s=120.0, horizon_s=DAY_S, seed=seed, max_rounds=max_rounds,
    )
    driver = OnlineRescheduler(cluster, service.handle, config, on_round=on_round)
    report = driver.run()
    assert_recounted(cluster.state)
    return report


class TestDeterminism:
    def test_same_seed_identical_report(self):
        first = run_simulation(seed=3).deterministic_dict()
        second = run_simulation(seed=3).deterministic_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_recorded_trace_replays_identically(self, tmp_path):
        """A run replayed from its saved JSONL trace reproduces the report."""
        events = churn_events(seed=3)
        path = save_trace(events, tmp_path / "trace.jsonl", meta={"seed": 3})
        _, replayed = load_trace(path)
        first = run_simulation(seed=3, events=events).deterministic_dict()
        second = run_simulation(seed=3, events=replayed).deterministic_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_step_cache_parity_with_rl_planner(self):
        """Cached incremental replanning must match fresh recompute exactly."""
        cached = run_simulation(planner="vmr2l", seed=5)
        registry = build_default_registry(include_slow=False, seed=0)
        reference = FreshRLPlanner(registry.get("vmr2l").agent)
        registry.replace("vmr2l", reference)
        fresh = run_simulation(planner="vmr2l", seed=5, registry=registry)
        assert reference.calls == len(fresh.rounds) > 0
        assert json.dumps(cached.deterministic_dict(), sort_keys=True) == json.dumps(
            fresh.deterministic_dict(), sort_keys=True
        )

    def test_round_structure(self):
        report = run_simulation(seed=1, max_rounds=4)
        assert len(report.rounds) == 4
        assert [r.round_index for r in report.rounds] == [0, 1, 2, 3]
        assert all(r.time_s == (i + 1) * 3600.0 for i, r in enumerate(report.rounds))
        assert report.failed_rounds == 0


class TestFailureHandling:
    def test_plan_errors_are_recorded_not_raised(self):
        cluster = build_cluster(seed=7)

        def failing_plan(request):
            return PlanError(request_id=request.request_id,
                             code="service_unavailable", message="down")

        config = SimulationConfig(planner="ha", replan_every_s=3600.0,
                                  plan_delay_s=60.0, horizon_s=DAY_S, max_rounds=3)
        report = OnlineRescheduler(cluster, failing_plan, config).run()
        assert report.failed_rounds == 3
        assert all(r.error_code == "service_unavailable" for r in report.rounds)
        # Churn still advanced despite every round failing.
        assert cluster.now_s == DAY_S

    def test_flaky_backend_partial_failure(self):
        cluster = build_cluster(seed=8)
        service = build_service()
        calls = {"n": 0}

        def flaky(request):
            calls["n"] += 1
            if calls["n"] == 2:
                return PlanError(request_id=request.request_id,
                                 code="internal_error", message="boom")
            return service.handle(request)

        config = SimulationConfig(planner="ha", replan_every_s=3600.0,
                                  plan_delay_s=60.0, horizon_s=DAY_S, max_rounds=4)
        report = OnlineRescheduler(cluster, flaky, config).run()
        assert report.failed_rounds == 1
        assert report.rounds[1].ok is False
        assert [r.ok for r in report.rounds] == [True, False, True, True]

    def test_on_round_hook_fires_every_round(self):
        seen = []
        run_simulation(seed=2, max_rounds=3, on_round=lambda r: seen.append(r.round_index))
        assert seen == [0, 1, 2]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replan_every_s": 0.0},
            {"plan_delay_s": -1.0},
            {"plan_delay_s": 3600.0, "replan_every_s": 3600.0},
            {"horizon_s": 0.0},
            {"max_rounds": 0},
            {"migration_limit": -1},
        ]
        # NaN passes every ordering check, so only an explicit finiteness
        # check keeps it (and inf) out of the round arithmetic.
        + [
            {name: value}
            for name in ("replan_every_s", "plan_delay_s", "horizon_s")
            for value in (float("nan"), float("inf"), float("-inf"))
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError, match="|".join(kwargs)):
            SimulationConfig(**kwargs)


class TestSummaries:
    def test_steady_state_mean_uses_tail(self):
        series = [1.0] * 5 + [0.0] * 5
        assert steady_state_mean(series) == 0.0
        assert steady_state_mean([9.0, 9.0, 1.0, 3.0]) == 2.0

    def test_steady_state_mean_empty_is_nan(self):
        assert steady_state_mean([]) != steady_state_mean([])  # NaN

    def test_invalidation_rate(self):
        assert invalidation_rate(0, 0) == 0.0
        assert invalidation_rate(10, 3) == pytest.approx(0.3)
