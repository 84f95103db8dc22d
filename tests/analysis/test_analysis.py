"""Tests for metrics, dynamics (Fig. 5), reporting and the visualization tool (Fig. 21)."""

import pytest

from repro.analysis import (
    achieved_fr_vs_delay,
    decay_series,
    find_elbow,
    format_series,
    format_table,
    numa_breakdown,
    potential_fr_ratio,
    relative_gap,
    render_numa_bar,
    render_trace,
    trace_plan,
)
from repro.baselines import FilteringHeuristic, MIPRescheduler
from repro.cluster import MigrationPlan, Migration
from repro.datasets import ClusterSpec, SnapshotGenerator


@pytest.fixture(scope="module")
def snapshot():
    return SnapshotGenerator(ClusterSpec(num_pms=6, target_utilization=0.7), seed=0).generate()


class TestMetrics:
    def test_potential_fr_ratio_bounds(self):
        assert potential_fr_ratio(0.5, 0.3, 0.25) == pytest.approx(0.8)
        assert potential_fr_ratio(0.5, 0.5, 0.5) == 1.0
        assert potential_fr_ratio(0.5, 0.6, 0.2) == 0.0  # clipped

    def test_relative_gap(self):
        assert relative_gap(0.2941, 0.2859) == pytest.approx(0.0287, abs=1e-3)
        assert relative_gap(0.0, 0.0) == 0.0


class TestDynamics:
    def test_achieved_fr_decays_with_delay(self, snapshot):
        plan = MIPRescheduler(time_limit_s=15).compute_plan(snapshot, 6).plan
        outcomes = achieved_fr_vs_delay(
            snapshot, plan, delays_s=[0.0, 60.0, 600.0], changes_per_minute=120.0, seed=0, num_replicas=2
        )
        assert len(outcomes) == 3
        by_delay = {o.delay_s: o for o in outcomes}
        # Zero delay applies the full plan; very long delays lose reduction.
        assert by_delay[0.0].actions_stale == 0
        assert by_delay[600.0].fr_reduction <= by_delay[0.0].fr_reduction + 1e-9
        series = decay_series(outcomes)
        assert series["delay_s"].tolist() == [0.0, 60.0, 600.0]

    def test_find_elbow(self, snapshot):
        plan = FilteringHeuristic().compute_plan(snapshot, 4).plan
        outcomes = achieved_fr_vs_delay(snapshot, plan, delays_s=[0.0, 30.0], changes_per_minute=60.0,
                                        num_replicas=1)
        elbow = find_elbow(outcomes)
        assert elbow is None or elbow in (0.0, 30.0)

    def test_outcomes_pinned(self, snapshot):
        # A fixed state, plan and seed give these outcomes exactly.  They
        # were recorded when Fig. 5 began drawing its churn with the
        # simulator's sampler (arrival_exit_events) and letting the engine
        # pick every arriving flavor and exiting VM; the action counts are
        # totals over the three replicas.
        plan = MigrationPlan([
            Migration(vm_id=13, dest_pm_id=5, dest_numa_id=0),
            Migration(vm_id=17, dest_pm_id=5, dest_numa_id=0),
            Migration(vm_id=19, dest_pm_id=3, dest_numa_id=1),
            Migration(vm_id=39, dest_pm_id=3, dest_numa_id=1),
            Migration(vm_id=48, dest_pm_id=3, dest_numa_id=1),
            Migration(vm_id=55, dest_pm_id=5, dest_numa_id=0),
        ])
        outcomes = achieved_fr_vs_delay(
            snapshot, plan, [0.0, 5.0, 30.0, 120.0, 600.0], changes_per_minute=12.0, seed=0, num_replicas=3
        )
        assert [
            (o.delay_s, o.achieved_fr, o.baseline_fr, o.actions_applied, o.actions_stale, o.initial_fr)
            for o in outcomes
        ] == [
            (0.0, 0.02040816326530612, 0.1292517006802721, 18, 0, 0.1292517006802721),
            (5.0, 0.04800782809942059, 0.11676370053627462, 15, 3, 0.1292517006802721),
            (30.0, 0.09894854703546248, 0.09894854703546248, 10, 8, 0.1292517006802721),
            (120.0, 0.09524810765349033, 0.0928768339407532, 8, 10, 0.1292517006802721),
            (600.0, 0.07228825979130372, 0.04943291547820488, 2, 16, 0.1292517006802721),
        ]
        for outcome in outcomes:  # every action of every replica is counted once
            assert outcome.actions_applied + outcome.actions_stale == 3 * len(plan)

    def test_invalid_replicas(self, snapshot):
        with pytest.raises(ValueError):
            achieved_fr_vs_delay(snapshot, MigrationPlan(), [0.0], num_replicas=0)


class TestVisualization:
    def test_numa_breakdown_accounts_for_all_cores(self, snapshot):
        pm_id = sorted(snapshot.pms)[0]
        breakdowns = numa_breakdown(snapshot, pm_id)
        assert len(breakdowns) == 2
        for b in breakdowns:
            allocated = sum(b.per_type_cores.values())
            assert allocated + b.free_cores == pytest.approx(b.capacity)

    def test_trace_plan_and_render(self, snapshot):
        plan = FilteringHeuristic().compute_plan(snapshot, 3).plan
        traces = trace_plan(snapshot, plan)
        assert len(traces) == len(plan)
        if traces:
            text = render_trace(traces, max_steps=2)
            assert "step 1" in text
            assert "PM" in text

    def test_trace_skips_stale_migrations(self, snapshot):
        plan = MigrationPlan([Migration(vm_id=999999, dest_pm_id=0)])
        assert trace_plan(snapshot, plan) == []

    def test_render_numa_bar_width(self, snapshot):
        breakdowns = numa_breakdown(snapshot, sorted(snapshot.pms)[0])
        bar = render_numa_bar(breakdowns[0], width=20)
        assert "[" in bar and "]" in bar
        inner = bar.split("[")[1].split("]")[0]
        assert len(inner) == 20
        with pytest.raises(ValueError):
            render_numa_bar(breakdowns[0], width=0)


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 22, "b": 0.25}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="x")

    def test_format_series(self):
        text = format_series({"x": [1, 2], "y": [0.1, 0.2]})
        assert "x" in text and "y" in text
