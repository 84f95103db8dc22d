"""The replica-slot lifecycle of the fleet, checked without processes or sleeps.

Every state change of a fleet slot goes through ``TRANSITIONS``.  These tests
walk that table breadth-first and assert the lifecycle invariants on it,
read each state back through ``/v1/state`` the way an operator sees it,
drive the clock-based failure checks with synthetic times, and keep the
table printed in docs/robustness.md equal to the code's.
"""

import re
from collections import deque
from pathlib import Path

import pytest

from repro.serve import DefaultRegistryFactory, FleetConfig, ReplicaFleet
from repro.serve.fleet import TRANSITIONS, _failure_reason, _Replica, next_state

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
        slot = _Replica(0)
        slot.state = state
        assert slot.routable == (state == "up")

    @pytest.mark.parametrize(
        "edge",
        [e for e, target in TRANSITIONS.items() if target in ("stopping", "restarting")],
    )
    def test_stopping_is_entered_only_with_an_empty_assigned_set(self, edge):
        state, event = edge
        fleet = unstarted_fleet(2)
        busy, idle = fleet._replicas
        busy.state = idle.state = state
        busy.assigned.add(7)
        with fleet._lock:
            with pytest.raises(RuntimeError, match="work assigned"):
                fleet._fire(busy, event)
            assert busy.state == state  # the refused event changed nothing
            assert fleet._fire(idle, event)
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

    def test_intentional_rolls_never_touch_the_restart_budget(self):
        # Without a failure, a roll comes back to ``up`` and never passes
        # through ``backoff`` — the one state whose exit spends the budget.
        intentional = [e for e in EVENTS if e not in FAILURES]
        for state in ("up", "starting"):
            after_roll = reachable({next_state(state, "roll")}, intentional)
            assert "up" in after_roll and "starting" in after_roll
            assert "backoff" not in after_roll


#: What an operator reads in ``/v1/state`` for a slot in each state.
EXPECTED_VIEW = {
    #              state       healthy desired retiring draining
    "spare": ("down", False, False, False, False),
    "starting": ("starting", False, True, False, False),
    "up": ("up", True, True, False, False),
    "rolling": ("up", False, True, False, True),
    "retiring": ("up", False, False, True, True),
    "restarting": ("stopping", False, True, False, True),
    "stopping": ("stopping", False, False, True, True),
    "backoff": ("down", False, True, False, False),
    "exhausted": ("down", False, True, False, False),
}


class TestStateView:
    def test_every_state_has_an_expected_view(self):
        assert set(EXPECTED_VIEW) == set(STATES)

    def test_state_endpoint_reports_each_lifecycle_state(self):
        fleet = unstarted_fleet(len(STATES))
        for slot, state in zip(fleet._replicas, STATES):
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
        assert fleet.control_plane_stats()["active_replicas"] == active


class _Process:
    def __init__(self, alive=True):
        self.alive = alive

    def is_alive(self):
        return self.alive


def live_slot(state, alive=True, spawned_at=0.0, last_heartbeat=0.0):
    slot = _Replica(0)
    slot.state = state
    slot.process = _Process(alive)
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
        for state in ("up", "rolling", "retiring"):
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
        for state in ("starting", "up", "rolling", "retiring"):
            slot = live_slot(state, alive=False, spawned_at=100.0, last_heartbeat=100.0)
            assert _failure_reason(slot, 100.0, None, CONFIG) == "replica process died"

    @pytest.mark.parametrize(
        "state", ["spare", "restarting", "stopping", "backoff", "exhausted"]
    )
    def test_slots_without_a_live_process_never_fail(self, state):
        slot = live_slot(state, alive=False, spawned_at=0.0, last_heartbeat=0.1)
        assert _failure_reason(slot, 1e9, 0.0, CONFIG) is None


class TestStaleSignals:
    def test_a_previous_connections_signal_is_dropped(self):
        fleet = unstarted_fleet(1)
        slot = fleet._replicas[0]
        slot.state, slot.conn = "up", object()
        with fleet._lock:
            assert not fleet._fire(slot, "fail", conn=object())
            assert slot.state == "up"
            assert fleet._fire(slot, "fail", conn=slot.conn)
        assert slot.state == "backoff"


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
