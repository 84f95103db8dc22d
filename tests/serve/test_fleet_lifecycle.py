"""The fleet's control plane, checked without processes or sleeps.

Every state change of a fleet slot goes through ``TRANSITIONS``.  These tests
walk that table breadth-first and assert the lifecycle invariants on it,
read each state back through ``/v1/state`` the way an operator sees it,
drive the clock-based failure checks, stale-generation drops, scaling and
brownout decisions of ``FleetControl`` with a synthetic ``now``, and keep the
table printed in docs/robustness.md equal to the code's.  (Every interleaving
of those inputs is enumerated in test_fleet_model.py.)
"""

import re
from collections import deque
from pathlib import Path

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
    ReschedulingService,
    RetryPolicy,
    ServiceConfig,
    build_default_registry,
)
from repro.serve.control import (
    LIVE,
    TRANSITIONS,
    FleetControl,
    Slot,
    Spawn,
    Stop,
    _failure_reason,
    next_state,
)

STATES = sorted({state for state, _ in TRANSITIONS} | set(TRANSITIONS.values()))
EVENTS = sorted({event for _, event in TRANSITIONS})
FAILURES = {"fail", "exhaust"}
DOC = Path(__file__).resolve().parents[2] / "docs" / "robustness.md"


def reachable(starts, events=EVENTS):
    """Every state reachable from ``starts`` through ``events`` (breadth-first)."""
    seen, queue = set(starts), deque(starts)
    while queue:
        state = queue.popleft()
        for event in events:
            following = TRANSITIONS.get((state, event))
            if following is not None and following not in seen:
                seen.add(following)
                queue.append(following)
    return seen


def unstarted_fleet(num_slots):
    # Building a fleet spawns nothing: slots stay ``spare`` until start().
    return ReplicaFleet(DefaultRegistryFactory(), FleetConfig(num_replicas=num_slots))


class TestTransitionTable:
    def test_every_state_is_reachable_from_spare_and_starting(self):
        assert reachable({"spare", "starting"}) == set(STATES)

    @pytest.mark.parametrize("state", [s for s in STATES if s != "exhausted"])
    def test_every_state_can_get_back_to_up_or_spare(self, state):
        assert reachable({state}) & {"up", "spare"}

    @pytest.mark.parametrize(
        "state,event",
        [("spare", "ready"), ("up", "stopped"), ("backoff", "drained"), ("up", "nap")],
    )
    def test_an_illegal_pair_raises(self, state, event):
        assert (state, event) not in TRANSITIONS
        with pytest.raises(ValueError, match="illegal replica transition"):
            next_state(state, event)

    def test_a_legal_pair_is_the_table_entry(self):
        for (state, event), following in TRANSITIONS.items():
            assert next_state(state, event) == following

    @pytest.mark.parametrize("state", STATES)
    def test_only_up_is_routable(self, state):
        slot = Slot(0)
        slot.state = state
        assert slot.routable == (state == "up")

    @pytest.mark.parametrize(
        "edge",
        [e for e, target in TRANSITIONS.items() if target == "stopping"],
    )
    def test_stopping_is_entered_only_with_an_empty_assigned_set(self, edge):
        state, event = edge
        control = FleetControl(FleetConfig(num_replicas=2))
        busy, idle = control.slots
        busy.state = idle.state = state
        busy.assigned.add(7)
        with pytest.raises(RuntimeError, match="work assigned"):
            control._fire(busy, event, 0.0)
        assert busy.state == state  # the refused event changed nothing
        control._fire(idle, event, 0.0)
        assert idle.state == TRANSITIONS[edge]

    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_respawns_stay_within_the_restart_budget(self, budget):
        # Breadth-first over (state, restarts): the fleet picks ``fail`` while
        # budget remains and ``exhaust`` after; only backoff → starting spends.
        def failure_event(restarts):
            return "fail" if restarts < budget else "exhaust"

        start = [("spare", 0), ("starting", 0)]
        seen, queue = set(start), deque(start)
        while queue:
            state, restarts = queue.popleft()
            for event in EVENTS:
                if event in FAILURES and event != failure_event(restarts):
                    continue
                following = TRANSITIONS.get((state, event))
                if following is None:
                    continue
                spent = restarts + ((state, event) == ("backoff", "respawn"))
                if (following, spent) not in seen:
                    seen.add((following, spent))
                    queue.append((following, spent))
        assert max(restarts for _, restarts in seen) == budget
        assert all(r < budget for state, r in seen if state == "backoff")
        assert ("exhausted", budget) in seen

    def test_scale_down_never_touches_the_restart_budget(self):
        # Without a failure, a retired slot drains back to ``spare`` and never
        # passes through ``backoff`` — the one state whose exit spends the
        # budget.
        intentional = [e for e in EVENTS if e not in FAILURES]
        for state in ("up", "starting"):
            after = reachable({next_state(state, "scale_down")}, intentional)
            assert {"stopping", "spare"} <= after
            assert "backoff" not in after


#: What an operator reads in ``/v1/state`` for a slot in each state.
EXPECTED_VIEW = {
    #              state       healthy desired retiring draining
    "spare": ("down", False, False, False, False),
    "starting": ("starting", False, True, False, False),
    "up": ("up", True, True, False, False),
    "retiring": ("up", False, False, True, True),
    "stopping": ("stopping", False, False, True, True),
    "backoff": ("down", False, True, False, False),
    "exhausted": ("down", False, True, False, False),
}


class TestStateView:
    def test_every_state_has_an_expected_view(self):
        assert set(EXPECTED_VIEW) == set(STATES)

    def test_state_endpoint_reports_each_lifecycle_state(self):
        fleet = unstarted_fleet(len(STATES))
        for slot, state in zip(fleet._control.slots, STATES):
            slot.state = state
        by_state = {
            state: row for state, row in zip(STATES, fleet.state()["replicas"])
        }
        for state, view in EXPECTED_VIEW.items():
            row = by_state[state]
            assert (
                row["state"], row["healthy"], row["desired"], row["retiring"],
                row["draining"],
            ) == view, state
        active = sum(1 for view in EXPECTED_VIEW.values() if view[2])
        assert sum(row["desired"] for row in fleet.state()["replicas"]) == active

    def test_a_drained_fleet_reports_stopped_not_draining(self):
        fleet = unstarted_fleet(1)
        assert fleet.drain(timeout=1.0) == 0
        state = fleet.state()
        assert state["draining"] is False and state["serving"] is False
        assert fleet.is_draining is False


def live_slot(state, spawned_at=0.0, last_heartbeat=None):
    slot = Slot(0)
    slot.state = state
    slot.spawned_at = spawned_at
    slot.last_heartbeat = last_heartbeat
    return slot


CONFIG = FleetConfig(ready_timeout_s=10.0, heartbeat_timeout_s=2.0, request_timeout_s=5.0)


class TestFailureChecks:
    def test_ready_timeout_boundary(self):
        slot = live_slot("starting", spawned_at=100.0)
        assert _failure_reason(slot, 110.0, None, CONFIG) is None
        assert _failure_reason(slot, 110.01, None, CONFIG) == "replica never became ready"

    def test_heartbeat_timeout_boundary(self):
        for state in ("up", "retiring"):
            slot = live_slot(state, last_heartbeat=50.0)
            assert _failure_reason(slot, 52.0, None, CONFIG) is None
            assert _failure_reason(slot, 52.01, None, CONFIG) == "heartbeat timed out"

    def test_request_age_boundary(self):
        # A hung planner keeps heartbeating: only the request's age shows it.
        slot = live_slot("up", last_heartbeat=100.0)
        assert _failure_reason(slot, 100.5, 95.5, CONFIG) is None
        assert _failure_reason(slot, 100.5, 95.49, CONFIG) == (
            "assigned request timed out (hang)"
        )

    def test_starting_slot_has_no_heartbeat_or_request_check(self):
        slot = live_slot("starting", spawned_at=100.0, last_heartbeat=1.0)
        assert _failure_reason(slot, 105.0, 1.0, CONFIG) is None

    def test_dead_process_fails_before_any_clock(self):
        # Death (EOF, a fatal report, is_alive() false) arrives as ``lost``.
        for state in LIVE:
            control = FleetControl(CONFIG)
            slot = control.slots[0]
            slot.state, slot.generation = state, 1
            actions = control.lost(0, 1, "replica process died", now=0.0)
            assert slot.state == ("spare" if state == "retiring" else "backoff")
            assert actions == [Stop(0, 1, None, 0.0)]

    @pytest.mark.parametrize(
        "state", ["spare", "stopping", "backoff", "exhausted"]
    )
    def test_slots_without_a_live_process_never_fail(self, state):
        slot = live_slot(state, spawned_at=0.0, last_heartbeat=0.1)
        assert _failure_reason(slot, 1e9, 0.0, CONFIG) is None
        control = FleetControl(CONFIG)
        control.slots[0] = slot
        assert control.lost(0, slot.generation, "replica process died", now=1e9) == []
        assert slot.state == state


def request_dict(seed=0, deadline_ms=None):
    return {"request_id": f"r{seed}", "planner": "ha", "deadline_ms": deadline_ms}


def serving_control(config, max_batch_size=1, now=0.0):
    """A started core whose initial slots all reported ready at ``now``."""
    control = FleetControl(config, max_batch_size)
    for spawn in control.start(now=now):
        control.ready(spawn.slot, spawn.generation, now=now)
    return control


OK = PlanResponse("r", "ha").to_dict()
UNAVAILABLE = PlanError("r", "service_unavailable", "replica stopping").to_dict()


class TestStaleSignals:
    def test_a_previous_generations_signal_is_dropped(self):
        control = serving_control(FleetConfig(num_replicas=1))
        slot = control.slots[0]
        slot.generation = 2  # respawned since generation 1's reader started
        assert control.lost(0, 1, "replica process died", now=1.0) == []
        assert control.ready(0, 1, now=1.0) == []
        assert slot.state == "up"
        assert control.lost(0, 2, "replica process died", now=1.0)
        assert slot.state == "backoff"

    def test_a_late_reply_from_a_failed_attempt_is_dropped(self):
        control = serving_control(FleetConfig(num_replicas=2))
        [send] = control.submit(0, "r0", request_dict(), now=0.0)
        control.lost(send.slot, send.generation, "replica process died", now=0.0)
        [retry] = control.tick(now=5.0)[-1:]
        assert retry.slot != send.slot and retry.ticket == send.ticket
        assert control.reply(send.slot, send.generation, 0, OK, now=5.0) == []
        [resolve] = control.reply(retry.slot, retry.generation, 0, OK, now=5.0)
        assert resolve.ticket == 0 and resolve.reply.ok


class TestScalingDecisions:
    def test_targets_clamp_to_bounds(self):
        config = FleetConfig(num_replicas=1, autoscale=AutoscaleConfig.manual(1, 2))
        control = serving_control(config)
        control.set_target(100, now=0.0)
        assert control.autoscaler.target == 2
        control.set_target(0, now=0.0)
        assert control.autoscaler.target == 1

    def test_manual_scaling_requires_autoscale_config(self):
        with pytest.raises(RuntimeError, match="FleetConfig.autoscale"):
            FleetControl(FleetConfig()).set_target(2, now=0.0)
        with pytest.raises(RuntimeError, match="FleetConfig.autoscale"):
            unstarted_fleet(1).set_target_replicas(2)

    def test_burst_scales_up_once_per_cooldown(self):
        autoscale = AutoscaleConfig(
            min_replicas=1, max_replicas=3, scale_up_backlog=1.5,
            scale_down_backlog=0.2, alpha=1.0, cooldown_up_s=0.05,
            cooldown_down_s=300.0,
        )
        control = serving_control(FleetConfig(num_replicas=1, autoscale=autoscale))
        sends = []
        for ticket in range(12):
            sends += control.submit(ticket, f"r{ticket}", request_dict(ticket), now=0.0)
        assert {send.slot for send in sends} == {0}
        assert control.tick(now=0.10) == [Spawn(1, 1)]
        assert control.tick(now=0.12) == []  # inside the up-cooldown
        assert control.tick(now=0.20) == [Spawn(2, 1)]
        assert control.stats["scale_ups"] == 2
        replies = [control.reply(0, 1, s.ticket, OK, now=0.3) for s in sends]
        assert all(len(r) == 1 and r[0].reply.ok for r in replies)
        assert control.stats["completed"] == 12 and control.stats["errors"] == 0
        view = control.state([None] * 3, now=0.3)
        assert sum(r["desired"] for r in view["replicas"]) == 3
        assert view["autoscale"]["scale_ups"] == 2

    def test_scale_down_after_quiet_cooldown_drains_then_stops(self):
        autoscale = AutoscaleConfig(
            min_replicas=1, max_replicas=2, scale_up_backlog=50.0,
            scale_down_backlog=0.5, alpha=1.0, cooldown_up_s=0.05,
            cooldown_down_s=0.2,
        )
        control = serving_control(FleetConfig(num_replicas=2, autoscale=autoscale))
        [send] = control.submit(0, "r0", request_dict(), now=0.0)
        assert send.slot == 0
        [resolve] = control.reply(0, 1, 0, OK, now=0.05)
        assert resolve.reply.ok
        # Quiet fleet and no scaling yet: the first tick retires the
        # emptiest, highest-index slot; the next stops it, drained.
        assert control.tick(now=0.1) == []
        assert control.slots[1].state == "retiring"
        assert control.tick(now=0.15) == [Stop(1, 1, ("drain", 4.5), 5.0)]
        assert control.stopped(1, 1, now=0.2) == []
        for step in range(1, 11):  # several more cooldown windows
            assert control.tick(now=0.2 + 0.1 * step) == []
        view = control.state([None, None], now=1.5)["replicas"]
        assert [r["desired"] for r in view] == [True, False]  # min_replicas floor
        assert view[1]["state"] == "down" and view[1]["assigned"] == 0
        assert control.stats["scale_downs"] == 1 and control.stats["errors"] == 0


    def test_a_busy_slot_is_stopped_only_after_its_last_reply(self):
        # Retiring a slot with work assigned takes two busy slots and a
        # scale-down: deeper than the model check's autoscale scope reaches.
        config = FleetConfig(num_replicas=2, autoscale=AutoscaleConfig.manual(1, 2))
        control = serving_control(config)
        sends = [control.submit(t, f"r{t}", request_dict(t), now=0.0)[0] for t in range(2)]
        assert {send.slot for send in sends} == {0, 1}
        assert control.set_target(1, now=0.0) == []
        assert control.slots[1].state == "retiring"
        assert control.tick(now=0.1) == []  # ticket 1 is still in flight there
        [resolve] = control.reply(1, 1, 1, OK, now=0.2)
        assert resolve.reply.ok
        assert control.tick(now=0.3) == [Stop(1, 1, ("drain", 4.5), 5.0)]
        assert control.slots[1].state == "stopping"


class TestBrownoutDecisions:
    def test_ladder_climbs_sheds_then_recovers(self):
        brownout = BrownoutConfig(
            enter_thresholds=(0.1, 0.15, 0.2), alpha=1.0, min_dwell=2,
            reduced_deadline_ms=60_000.0,
        )
        control = serving_control(
            FleetConfig(num_replicas=1, brownout=brownout), max_batch_size=8
        )
        sends = []
        for ticket in range(8):
            sends += control.submit(ticket, f"r{ticket}", request_dict(ticket), now=0.0)
        control.tick(now=0.05)
        assert control.state([None], now=0.05)["brownout"]["level"] == 3
        [shed] = control.submit(8, "r8", request_dict(8), now=0.06)
        assert isinstance(shed.reply, PlanError)
        assert shed.reply.code == "service_unavailable"
        assert shed.reply.retry_after_s is not None
        assert control.stats["shed"] == 1
        for send in sends:  # admitted work still completes
            [resolve] = control.reply(0, 1, send.ticket, OK, now=0.1)
            assert resolve.reply.ok
        levels = []
        for step in range(1, 7):
            control.tick(now=0.1 + 0.05 * step)
            levels.append(control.brownout.level)
        assert levels == [3, 2, 2, 1, 1, 0]  # one rung per two quiet ticks
        assert control.state([None], now=1.0)["brownout"]["transitions"] == 4

    def test_l1_stamps_the_reduced_deadline_on_the_sent_copy_only(self):
        brownout = BrownoutConfig(enter_thresholds=(1.0, 50.0, 100.0), alpha=1.0,
                                  reduced_deadline_ms=250.0)
        control = serving_control(FleetConfig(num_replicas=1, brownout=brownout))
        sends = []
        for ticket in range(2):
            sends += control.submit(ticket, f"r{ticket}", request_dict(ticket), now=0.0)
        control.tick(now=0.05)
        assert control.brownout.level == 1
        [send] = control.submit(2, "r2", request_dict(2, deadline_ms=900.0), now=0.06)
        assert send.request["deadline_ms"] == 250.0
        assert control.inflight[2].request_dict["deadline_ms"] == 900.0


    LADDER = BrownoutConfig(enter_thresholds=(1.0, 2.0, 3.0), alpha=1.0,
                            reduced_deadline_ms=250.0, fallback_planner="ha")

    def test_every_rung_acts_on_the_sent_copy_or_at_admission(self):
        control = serving_control(FleetConfig(num_replicas=1, brownout=self.LADDER))
        rl = {"request_id": "r", "planner": "vmr2l", "greedy": True, "deadline_ms": None}
        sent = {}
        for ticket, level in enumerate((0, 1, 2)):
            [send] = control.submit(ticket, f"r{ticket}", dict(rl), now=ticket)
            sent[level] = send.request
            control.tick(now=ticket + 0.5)  # one more outstanding: one rung up
            assert control.brownout.level == level + 1
        assert sent[0] == rl  # L0 sends the request as the caller sent it
        assert sent[1] == {**rl, "deadline_ms": 250.0}  # L1: reduced deadline
        assert sent[2] == {**rl, "deadline_ms": 250.0, "planner": "ha"}  # L2: fallback
        assert control.inflight[2].request_dict == rl  # the stored request is unchanged
        [shed] = control.submit(3, "r3", dict(rl), now=3.0)  # L3: shed at admission
        assert shed.reply.code == "service_unavailable" and shed.reply.retry_after_s
        replies = {t: control.reply(0, 1, t, OK, now=4.0)[0].reply for t in range(3)}
        assert "brownout_level" not in replies[0].info
        assert replies[1].info == {"brownout_level": 1}
        assert replies[2].info == {
            "brownout_level": 2, "degraded_from": "vmr2l", "degraded_to": "ha",
        }
        assert control.stats["degraded"] == 1
        assert control.stats["shed"] == 1 and control.stats["retried"] == 0

    def test_l2_rewrites_only_greedy_sent_copies(self):
        control = serving_control(FleetConfig(num_replicas=1, brownout=self.LADDER))
        for ticket in range(2):
            control.submit(ticket, f"r{ticket}", request_dict(ticket), now=0.0)
        control.tick(now=0.5)
        assert control.brownout.level == 2
        sampled = {"request_id": "s", "planner": "vmr2l", "greedy": False}
        [send] = control.submit(2, "s", sampled, now=0.6)
        assert send.request["planner"] == "vmr2l"
        [resolve] = control.reply(0, 1, 2, OK, now=0.7)
        assert resolve.reply.info == {"brownout_level": 2}
        assert control.stats["degraded"] == 0

    def test_a_retry_goes_out_at_the_level_that_holds_then(self):
        retry = RetryPolicy(max_retries=1, backoff_s=0.5, jitter=0.0)
        control = serving_control(
            FleetConfig(num_replicas=1, brownout=self.LADDER, retry=retry)
        )
        rl = {"request_id": "r", "planner": "vmr2l", "greedy": True}
        for ticket in range(2):
            control.submit(ticket, f"r{ticket}", dict(rl), now=0.0)
        control.tick(now=0.5)
        [degraded] = control.submit(2, "r2", dict(rl), now=0.6)
        assert degraded.request["planner"] == "ha"
        for ticket in range(2):
            control.reply(0, 1, ticket, OK, now=0.7)
        assert control.reply(0, 1, 2, UNAVAILABLE, now=0.8) == []  # parked for retry
        sends = [a for t in (1.0, 1.5, 2.0) for a in control.tick(now=t)]
        assert control.brownout.level == 1  # one outstanding: back down to L1
        [resend] = sends
        assert resend.request["planner"] == "vmr2l" and resend.request["deadline_ms"] == 250.0
        [resolve] = control.reply(0, 1, 2, OK, now=2.1)
        assert resolve.reply.info == {"brownout_level": 1}
        assert control.stats["degraded"] == 0 and control.stats["retried"] == 1

    def test_a_replica_never_sheds_for_brownout(self):
        # Replicas run no ladder: a burst far past any rung's load is planned,
        # so no replica-side shed can come back for the fleet to retry.
        service = ReschedulingService(
            build_default_registry(include_slow=False), ServiceConfig(max_batch_size=1)
        )
        state = SnapshotGenerator(ClusterSpec(num_pms=5), seed=0).generate()
        burst = [PlanRequest.from_state(state, planner="ha", migration_limit=1)] * 12
        assert all(reply.ok for reply in service.handle_many(burst))
        assert service.stats()["shed"] == 0 and "brownout" not in service.state()

class TestAdmissionBound:
    def test_max_inflight_sheds_past_the_bound_and_admits_after_it_drains(self):
        control = serving_control(FleetConfig(num_replicas=1, max_inflight=2))
        admitted = []
        for ticket in range(2):
            admitted += control.submit(ticket, f"r{ticket}", request_dict(ticket), now=0.0)
        [shed] = control.submit(2, "r2", request_dict(2), now=0.0)
        assert shed.reply.code == "service_unavailable"
        assert "admission bound" in shed.reply.message
        assert shed.reply.retry_after_s is not None
        for send in admitted:  # admitted work completes; nothing fails
            [resolve] = control.reply(0, 1, send.ticket, OK, now=0.1)
            assert resolve.reply.ok
        assert control.stats["shed"] == 1 and control.stats["errors"] == 0
        [send] = control.submit(3, "r3", request_dict(3), now=0.2)
        assert send.slot == 0


class TestFleetConfigValidation:
    def test_drain_timeout_must_be_positive(self):
        for value in (-5.0, 0.0):
            with pytest.raises(ValueError, match="drain_timeout_s"):
                FleetConfig(drain_timeout_s=value)

    def test_shed_retry_after_must_not_be_negative(self):
        with pytest.raises(ValueError, match="shed_retry_after_s"):
            FleetConfig(shed_retry_after_s=-1.0)
        assert FleetConfig(shed_retry_after_s=0.0).shed_retry_after_s == 0.0


class TestDocumentedTable:
    def test_docs_table_equals_the_code_table(self):
        text = DOC.read_text(encoding="utf-8")
        section = text.split("### Replica slot lifecycle", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `(\w+)` \|$", section, re.M)
        documented = {(state, event): following for state, event, following in rows}
        assert len(documented) == len(rows), "a (state, event) pair is listed twice"
        assert documented == TRANSITIONS
