"""StepCache parity under sustained external churn (the living-cluster case).

The simulator pushes thousands of events through the cluster's mutation
journal between replanning rounds — drain migrations as journal entries,
arrivals/exits/resizes/PM lifecycle as structural rebuilds.  With the journal
capacity shrunk to a couple of entries, every round overflows repeatedly; a
stale cache hit anywhere would show up as a plan diverging from the
no-cache run.  The whole per-round record stream (plans, objectives,
invalidations) must stay bit-identical with the cache on and off.
"""

import json

import repro.cluster.soa as soa
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.serve import ReschedulingService, build_default_registry
from repro.sim import (
    ChurnSpec,
    LivingCluster,
    OnlineRescheduler,
    SimulationConfig,
    SyntheticTrace,
)

from oracles import FreshRLPlanner

DAY_S = 86400.0

#: Heavy churn: every structural event family represented, thousands of
#: events over two simulated days on a small cluster.
CHURN = ChurnSpec(
    family="abnormal",
    peak_per_minute=3.0,
    trough_per_minute=0.5,
    resizes_per_hour=4.0,
    drains_per_day=8.0,
    failures_per_day=4.0,
    adds_per_day=12.0,
)


def run_simulation(plan_log, reference=None, capacity=None, monkeypatch=None):
    """One seeded churn run; ``reference`` (a :class:`FreshRLPlanner`)
    replaces the cached RL planner for the fresh-recompute side."""
    if capacity is not None:
        monkeypatch.setattr(soa, "JOURNAL_CAPACITY", capacity)
    spec = ClusterSpec(num_pms=8, target_utilization=0.6, best_fit_fraction=0.3)
    state = SnapshotGenerator(spec, seed=11).generate()
    events = SyntheticTrace(CHURN, seed=12).generate(2 * DAY_S)
    assert len(events) > 2000, "churn too light to stress the journal"
    cluster = LivingCluster(state, events, seed=13)
    registry = build_default_registry(include_slow=False, seed=0)
    if reference is not None:
        registry.replace("vmr2l", reference)
    service = ReschedulingService(registry)

    def logging_plan(request):
        reply = service.handle(request)
        plan_log.append([
            (m["vm_id"], m["dest_pm_id"], m["dest_numa_id"]) for m in reply.migrations
        ] if reply.ok else reply.code)
        return reply

    config = SimulationConfig(
        planner="vmr2l",
        migration_limit=4,
        replan_every_s=4 * 3600.0,
        plan_delay_s=300.0,
        horizon_s=2 * DAY_S,
        seed=0,
    )
    report = OnlineRescheduler(cluster, logging_plan, config).run()
    cluster.state.arrays().assert_in_sync(cluster.state)
    return report


class TestStepCacheChurnParity:
    def test_cached_plans_identical_under_journal_overflow(self, monkeypatch):
        cached_plans, fresh_plans = [], []
        cached = run_simulation(cached_plans, capacity=2, monkeypatch=monkeypatch)
        reference = FreshRLPlanner(build_default_registry(include_slow=False, seed=0)
                                   .get("vmr2l").agent)
        fresh = run_simulation(fresh_plans, reference=reference, capacity=2,
                               monkeypatch=monkeypatch)
        assert reference.calls == len(fresh_plans) > 0, "the fresh side never ran"
        assert cached_plans == fresh_plans
        assert any(plan for plan in cached_plans), "trivial plans prove nothing"
        assert json.dumps(cached.deterministic_dict(), sort_keys=True) == json.dumps(
            fresh.deterministic_dict(), sort_keys=True
        )

    def test_tiny_capacity_matches_stock_capacity(self, monkeypatch):
        """Overflow handling must not change results vs. the stock journal."""
        stock_plans, tiny_plans = [], []
        stock = run_simulation(stock_plans)
        tiny = run_simulation(tiny_plans, capacity=1, monkeypatch=monkeypatch)
        assert stock_plans == tiny_plans
        assert json.dumps(stock.deterministic_dict(), sort_keys=True) == json.dumps(
            tiny.deterministic_dict(), sort_keys=True
        )
