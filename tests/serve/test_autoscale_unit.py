"""Pure-controller tests for the autoscaler and the brownout ladder.

These drive :class:`Autoscaler` and :class:`BrownoutController` with explicit
load samples and timestamps — no processes, no sleeps — so every hysteresis
band, cooldown and ladder transition is asserted deterministically.  The
fleet chaos suite (tests/robustness/test_autoscale_fleet.py) then only has to
show the decisions are *obeyed* by real replicas.
"""

import pytest

from repro.serve import (
    BROWNOUT_LEVEL_NAMES,
    AutoscaleConfig,
    Autoscaler,
    BrownoutConfig,
    BrownoutController,
    FleetLoad,
)


def load(active, outstanding):
    return FleetLoad(active_replicas=active, outstanding=outstanding)


class TestAutoscaleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscaleConfig(min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscaleConfig(scale_up_backlog=1.0, scale_down_backlog=1.0)
        with pytest.raises(ValueError):
            AutoscaleConfig(alpha=0.0)
        with pytest.raises(ValueError):
            AutoscaleConfig(cooldown_up_s=-1.0)

    def test_manual_config_never_autoscales(self):
        scaler = Autoscaler(AutoscaleConfig.manual(1, 4))
        for tick in range(20):
            # Absurd load in both directions: neither threshold can fire.
            target = scaler.observe(load(1, 1000), now=float(tick))
            assert target == 1
            target = scaler.observe(load(4, 0), now=float(tick) + 0.5)
            assert target == 1
        assert scaler.events == []


class TestAutoscalerUp:
    def config(self, **overrides):
        defaults = dict(
            min_replicas=1,
            max_replicas=3,
            scale_up_backlog=3.0,
            scale_down_backlog=0.5,
            alpha=1.0,  # no smoothing: thresholds fire on the raw sample
            cooldown_up_s=1.0,
            cooldown_down_s=5.0,
        )
        defaults.update(overrides)
        return AutoscaleConfig(**defaults)

    def test_scales_up_one_replica_at_a_time(self):
        scaler = Autoscaler(self.config(), initial_replicas=1)
        assert scaler.observe(load(1, 10), now=0.0) == 2
        # Still overloaded but inside cooldown_up_s: no second step yet.
        assert scaler.observe(load(2, 10), now=0.5) == 2
        assert scaler.observe(load(2, 10), now=1.1) == 3
        # At max_replicas: saturates, no event recorded past the bound.
        assert scaler.observe(load(3, 30), now=3.0) == 3
        assert [e["reason"] for e in scaler.events] == ["backlog-high"] * 2
        assert [(e["from"], e["to"]) for e in scaler.events] == [(1, 2), (2, 3)]

    def test_smoothing_delays_the_trigger(self):
        scaler = Autoscaler(self.config(alpha=0.5), initial_replicas=1)
        # One spiky sample halves through the EWMA (smoothed=4 from raw 8
        # after a first sample of 0): first tick seeds at 0, second is 4.
        assert scaler.observe(load(1, 0), now=0.0) == 1
        assert scaler.observe(load(1, 8), now=1.0) == 2  # smoothed 4.0 >= 3.0
        assert scaler.smoothed == pytest.approx(4.0)


class TestAutoscalerDown:
    def config(self):
        return AutoscaleConfig(
            min_replicas=1,
            max_replicas=3,
            scale_up_backlog=3.0,
            scale_down_backlog=0.5,
            alpha=1.0,
            cooldown_up_s=1.0,
            cooldown_down_s=5.0,
        )

    def test_scales_down_only_after_cooldown(self):
        scaler = Autoscaler(self.config(), initial_replicas=3)
        # No prior event: cooldowns are vacuously satisfied, so the first
        # quiet tick already steps down one replica.
        assert scaler.observe(load(3, 0), now=0.0) == 2
        # Inside cooldown_down_s of that down-move: held.
        assert scaler.observe(load(2, 0), now=2.0) == 2
        assert scaler.observe(load(2, 0), now=5.5) == 1
        # At min_replicas: saturates.
        assert scaler.observe(load(1, 0), now=20.0) == 1
        assert [(e["from"], e["to"]) for e in scaler.events] == [(3, 2), (2, 1)]

    def test_scale_up_resets_the_down_cooldown(self):
        scaler = Autoscaler(self.config(), initial_replicas=2)
        assert scaler.observe(load(2, 12), now=0.0) == 3  # up at t=0
        # Quiet immediately after, but the up at t=0 holds downs until t=5.
        assert scaler.observe(load(3, 0), now=2.0) == 3
        assert scaler.observe(load(3, 0), now=4.9) == 3
        assert scaler.observe(load(3, 0), now=5.1) == 2

    def test_no_scale_down_with_queued_work(self):
        scaler = Autoscaler(self.config(), initial_replicas=2)
        # Smoothed backlog is low but more requests than replicas are
        # outstanding — killing warm capacity now would strand them.
        scaler.smoothed = 0.0
        assert scaler.observe(load(2, 3), now=100.0) == 2

    def test_hysteresis_band_holds_target(self):
        scaler = Autoscaler(self.config(), initial_replicas=2)
        # Backlog between the two thresholds: neither direction fires, ever.
        for tick in range(30):
            assert scaler.observe(load(2, 4), now=float(tick * 10)) == 2
        assert scaler.events == []

    def test_state_dict_counts_directions(self):
        scaler = Autoscaler(self.config(), initial_replicas=1)
        scaler.observe(load(1, 10), now=0.0)
        scaler.observe(load(2, 0), now=10.0)
        state = scaler.state_dict()
        assert state["scale_ups"] == 1
        assert state["scale_downs"] == 1
        assert state["target"] == 1
        assert state["min_replicas"] == 1 and state["max_replicas"] == 3
        assert len(state["events"]) == 2


class TestBrownoutConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BrownoutConfig(enter_thresholds=(2.0, 4.0))  # needs 3 rungs
        with pytest.raises(ValueError):
            BrownoutConfig(enter_thresholds=(4.0, 2.0, 8.0))
        with pytest.raises(ValueError):
            BrownoutConfig(enter_thresholds=(0.0, 2.0, 4.0))
        with pytest.raises(ValueError):
            BrownoutConfig(exit_fraction=1.0)
        with pytest.raises(ValueError):
            BrownoutConfig(min_dwell=0)
        with pytest.raises(ValueError):
            BrownoutConfig(reduced_deadline_ms=0.0)

    def test_level_names_cover_the_ladder(self):
        assert BROWNOUT_LEVEL_NAMES == (
            "normal",
            "partial-plans",
            "fallback-planner",
            "shed",
        )


class TestBrownoutLadder:
    def controller(self, **overrides):
        defaults = dict(
            enter_thresholds=(2.0, 4.0, 8.0),
            exit_fraction=0.6,
            alpha=1.0,  # raw samples: transitions assertable per-tick
            min_dwell=2,
        )
        defaults.update(overrides)
        return BrownoutController(BrownoutConfig(**defaults))

    def test_enters_rungs_in_order(self):
        ladder = self.controller()
        assert ladder.observe(1.0, now=0.0) == 0
        assert ladder.observe(2.5, now=1.0) == 1
        assert ladder.observe(4.0, now=2.0) == 2
        assert ladder.observe(9.0, now=3.0) == 3

    def test_spike_jumps_multiple_rungs(self):
        ladder = self.controller()
        assert ladder.observe(8.5, now=0.0) == 3
        assert len(ladder.transitions) == 1
        assert ladder.transitions[0]["from"] == 0
        assert ladder.transitions[0]["to"] == 3

    def test_exit_is_one_rung_at_a_time_with_dwell(self):
        ladder = self.controller()
        ladder.observe(4.0, now=0.0)  # L2
        assert ladder.level == 2
        # Below exit (4.0 * 0.6 = 2.4) once: dwell not met, level holds.
        assert ladder.observe(0.1, now=1.0) == 2
        # Second consecutive quiet tick: one rung down, not straight to 0.
        assert ladder.observe(0.1, now=2.0) == 1
        assert ladder.observe(0.1, now=3.0) == 1
        assert ladder.observe(0.1, now=4.0) == 0

    def test_bounce_resets_the_dwell_counter(self):
        ladder = self.controller()
        ladder.observe(2.5, now=0.0)  # L1 (exit below 1.2)
        assert ladder.observe(0.1, now=1.0) == 1  # quiet x1
        assert ladder.observe(1.5, now=2.0) == 1  # bounce: counter resets
        assert ladder.observe(0.1, now=3.0) == 1  # quiet x1 again
        assert ladder.observe(0.1, now=4.0) == 0  # quiet x2: now it exits

    LOADS = {0: 0.0, 1: 2.0, 2: 4.0, 3: 8.0}

    @pytest.mark.parametrize(
        "level,caller_deadline,sent_deadline,sent_planner",
        [
            (0, None, None, "vmr2l"),
            (0, 1000.0, 1000.0, "vmr2l"),
            (1, None, 250.0, "vmr2l"),
            (1, 1000.0, 250.0, "vmr2l"),
            (1, 100.0, 100.0, "vmr2l"),  # a tighter caller deadline survives
            (2, None, 250.0, "ha"),
            (3, 1000.0, 250.0, "ha"),
        ],
    )
    def test_apply_edits_a_copy_per_rung(
        self, level, caller_deadline, sent_deadline, sent_planner
    ):
        ladder = self.controller(reduced_deadline_ms=250.0, fallback_planner="ha")
        ladder.observe(self.LOADS[level], now=0.0)
        assert ladder.level == level
        assert ladder.shedding == (level == 3)
        request = {"planner": "vmr2l", "greedy": True, "deadline_ms": caller_deadline}
        stored = dict(request)
        sent, info = ladder.apply(request)
        assert request == stored
        assert sent["deadline_ms"] == sent_deadline
        assert sent["planner"] == sent_planner
        expected = {} if level == 0 else {"brownout_level": level}
        if level >= 2:
            expected.update(degraded_from="vmr2l", degraded_to="ha")
        assert info == expected

    @pytest.mark.parametrize(
        "request_fields",
        [{"planner": "vmr2l", "greedy": False}, {"planner": "HA", "greedy": True}],
        ids=["sampled", "already-the-fallback"],
    )
    def test_l2_leaves_sampled_and_fallback_requests_alone(self, request_fields):
        ladder = self.controller(fallback_planner="ha")
        ladder.observe(4.0, now=0.0)
        sent, info = ladder.apply(request_fields)
        assert sent["planner"] == request_fields["planner"]
        assert info == {"brownout_level": 2}

    def test_l2_without_a_fallback_is_l1(self):
        ladder = self.controller(reduced_deadline_ms=250.0)
        ladder.observe(4.0, now=0.0)
        sent, info = ladder.apply({"planner": "vmr2l"})
        assert sent == {"planner": "vmr2l", "deadline_ms": 250.0}
        assert info == {"brownout_level": 2}

    def test_a_non_numeric_deadline_is_left_for_the_replica_to_reject(self):
        ladder = self.controller()
        ladder.observe(2.5, now=0.0)
        sent, _ = ladder.apply({"planner": "ha", "deadline_ms": "soon"})
        assert sent["deadline_ms"] == "soon"

    def test_state_dict_names_the_level(self):
        ladder = self.controller()
        ladder.observe(4.5, now=0.0)
        state = ladder.state_dict()
        assert state["level"] == 2
        assert state["level_name"] == "fallback-planner"
        assert state["transitions"] == 1
        assert state["recent_transitions"][0]["to"] == 2
