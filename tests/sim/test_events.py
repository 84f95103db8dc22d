"""Hardened ClusterEvent: validation, dict round-trips, Fig. 5 streams through the engine."""

import pytest

from repro.cluster import ClusterEvent, EVENT_KINDS
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.datasets.workloads import ARRIVAL_FRACTION
from repro.sim import LivingCluster
from repro.sim.trace import arrival_exit_events

import numpy as np


def small_state(seed=0):
    spec = ClusterSpec(num_pms=6, target_utilization=0.6, best_fit_fraction=0.3)
    return SnapshotGenerator(spec, seed=seed).generate()


class TestValidation:
    def test_all_kinds_constructible(self):
        for kind in EVENT_KINDS:
            event = ClusterEvent(time_s=1.5, kind=kind)
            assert event.kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            ClusterEvent(time_s=0.0, kind="defrag")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ClusterEvent(time_s=-0.1, kind="arrival")

    @pytest.mark.parametrize("bad_time", [True, "12", None, [1.0]])
    def test_non_numeric_time_rejected(self, bad_time):
        with pytest.raises(ValueError):
            ClusterEvent(time_s=bad_time, kind="arrival")

    @pytest.mark.parametrize("bad_time", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, bad_time):
        with pytest.raises(ValueError, match="finite"):
            ClusterEvent(time_s=bad_time, kind="arrival")

    @pytest.mark.parametrize("bad_time", [float("nan"), float("inf"), float("-inf")])
    def test_from_dict_rejects_non_finite_time(self, bad_time):
        with pytest.raises(ValueError, match="finite"):
            ClusterEvent.from_dict({"time_s": bad_time, "kind": "arrival"})

    @pytest.mark.parametrize("bad_time", [True, "12", None, [1.0]])
    def test_from_dict_rejects_non_numeric_time(self, bad_time):
        # Checked before conversion: float() would turn True into 1.0 and
        # "12" into 12.0, times the constructor itself rejects.
        with pytest.raises(ValueError, match="must be a number"):
            ClusterEvent.from_dict({"time_s": bad_time, "kind": "arrival"})

    def test_zero_time_allowed(self):
        assert ClusterEvent(time_s=0, kind="exit").time_s == 0


class TestRoundTrip:
    EXAMPLES = [
        ClusterEvent(time_s=1.0, kind="arrival", vm_type_name="large"),
        ClusterEvent(time_s=2.0, kind="exit", vm_id=7),
        ClusterEvent(time_s=3.0, kind="resize", vm_id=7, vm_type_name="xlarge"),
        ClusterEvent(time_s=4.0, kind="resize"),
        ClusterEvent(time_s=5.0, kind="pm_drain", pm_id=2),
        ClusterEvent(time_s=6.0, kind="pm_fail"),
        ClusterEvent(time_s=7.0, kind="pm_add", pm_type_name="big", pm_cpu=128, pm_memory=512),
    ]

    @pytest.mark.parametrize("event", EXAMPLES, ids=lambda e: f"{e.kind}@{e.time_s}")
    def test_to_from_dict_round_trip(self, event):
        assert ClusterEvent.from_dict(event.to_dict()) == event

    def test_to_dict_omits_unset_fields(self):
        payload = ClusterEvent(time_s=1.0, kind="exit", vm_id=3).to_dict()
        assert payload == {"time_s": 1.0, "kind": "exit", "vm_id": 3}

    def test_from_dict_coerces_int_fields(self):
        event = ClusterEvent.from_dict(
            {"time_s": 2.5, "kind": "pm_add", "pm_cpu": "64", "pm_memory": 256.0}
        )
        assert event.time_s == 2.5
        assert event.pm_cpu == 64 and event.pm_memory == 256

    @pytest.mark.parametrize(
        "field,value",
        [("vm_id", True), ("pm_id", False), ("pm_cpu", 63.9), ("pm_memory", float("inf")),
         ("vm_id", "7.5"), ("pm_id", [2]), ("vm_id", "+-5"), ("pm_id", "--3"),
         ("pm_cpu", "\u00b2")],
    )
    def test_from_dict_rejects_non_integer_int_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ClusterEvent.from_dict({"time_s": 1.0, "kind": "pm_add", field: value})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown event fields"):
            ClusterEvent.from_dict({"time_s": 1.0, "kind": "exit", "priority": 9})

    def test_from_dict_requires_time_and_kind(self):
        with pytest.raises(ValueError, match="requires"):
            ClusterEvent.from_dict({"kind": "exit"})
        with pytest.raises(ValueError, match="requires"):
            ClusterEvent.from_dict({"time_s": 1.0})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ValueError, match="must be a dict"):
            ClusterEvent.from_dict([1.0, "exit"])


def flat_stream(seed, minutes=5, rate=6.0, horizon_s=None):
    """A Fig. 5 churn stream: ``arrival_exit_events`` at a flat rate."""
    rates = np.full(minutes, rate)
    horizon_s = minutes * 60.0 if horizon_s is None else horizon_s
    return arrival_exit_events(np.random.default_rng(seed), rates, horizon_s)


class TestFlatRateStreams:
    """The arrival/exit streams Fig. 5 replays through the simulator's engine."""

    def test_rate_and_arrival_share_within_poisson_tolerance(self):
        minutes, rate = 600, 60.0
        events = flat_stream(0, minutes=minutes, rate=rate)
        expected = minutes * rate
        assert abs(len(events) - expected) < 5 * np.sqrt(expected)
        share = sum(e.kind == "arrival" for e in events) / len(events)
        assert abs(share - ARRIVAL_FRACTION) < 5 * np.sqrt(0.25 / len(events))

    def test_events_carry_no_target(self):
        events = flat_stream(1, rate=30.0)
        assert events and {e.kind for e in events} == {"arrival", "exit"}
        assert all(set(e.to_dict()) == {"time_s", "kind"} for e in events)

    def test_horizon_cuts_the_last_minute(self):
        events = flat_stream(2, minutes=3, rate=30.0, horizon_s=150.0)
        assert events and all(0.0 <= e.time_s < 150.0 for e in events)
        assert max(e.time_s for e in events) >= 120.0

    def test_equal_seeds_give_equal_streams(self):
        assert flat_stream(3) == flat_stream(3)
        assert flat_stream(3) != flat_stream(4)

    def test_living_cluster_resolves_flavors_and_exits(self):
        state = small_state()
        events = flat_stream(1)
        engine = LivingCluster(state, events, seed=1)
        before = state.num_vms
        stats = engine.advance(300.0)
        assert stats["arrivals"] > 0 and stats["exits"] > 0
        assert stats["skipped"] == 0 and engine.pending_events == 0
        assert state.num_vms == before + stats["arrivals"] - stats["exits"]
