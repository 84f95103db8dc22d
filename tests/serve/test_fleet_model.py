"""Exhaustive model check of the fleet's control plane at small scope.

``FleetControl`` makes every fleet decision from explicit inputs and an
explicit ``now``, and returns its I/O as data, so the interleavings the chaos
suites can only sample are enumerated here instead.  A ``World`` is the core
plus what the process shell would see: the processes spawned (by slot and
generation) and which of their signals are still undelivered, the plans sent
and not yet answered, the stops not yet reported.  From every world reached,
breadth-first and deduplicated, every input the shell could feed next is
tried — submit, ready, heartbeat, reply (ok or ``service_unavailable``),
lost, stopped, tick (one second on), hang (``now`` advanced past
``request_timeout_s``, then a tick), scale to 1 or 3, drain and shutdown —
including signals from replaced generations.  Every step is
checked for:

* exactly one ``Resolve`` per submitted ticket, never two; every admitted
  ticket in exactly one of waiting / in flight / resolved, and a slot's
  assigned set exactly the in-flight tickets routed to it;
* a ``Stop`` only for a slot with nothing assigned — the failure kill
  re-queues or fails its orphans before it stops;
* restarts per slot within ``max_replica_restarts``;
* a ``Send`` only to a slot that is ``up`` in the current generation, whose
  process has itself reported ready;
* after shutdown, every admitted ticket resolved, and once the stops are
  reported, every slot ``spare``;

and over all paths, every brownout rung entered and exited.
"""

import functools
import math
import time
from collections import deque

import numpy as np
import pytest

from repro.serve import (
    AutoscaleConfig,
    BrownoutConfig,
    FleetConfig,
    PlanError,
    PlanResponse,
    RetryPolicy,
)
from repro.serve.control import TRANSITIONS, FleetControl, Resolve, Send, Spawn, Stop

OK = PlanResponse("r", "ha").to_dict()
UNAVAILABLE = PlanError("r", "service_unavailable", "replica stopping").to_dict()
REQUEST = {"planner": "ha"}

#: Timeouts in units of the one-second tick, so a few ticks cross each one.
BASE = dict(
    request_timeout_s=1.5,
    heartbeat_timeout_s=2.5,
    ready_timeout_s=2.5,
    queue_wait_timeout_s=3.5,
    max_replica_restarts=1,
    restart_backoff_s=0.25,  # every respawn falls due at the next tick
    retry=RetryPolicy(max_retries=1, backoff_s=0.5, jitter=0.0),
    seed=0,
)
#: Past this age every clock-based decision of the configs below has fired.
HORIZON = 4.0

SCOPES = {
    # Two fixed slots: failures, hangs, retries, drain and shutdown.
    "fixed": (FleetConfig(num_replicas=2, **BASE), 3, 6),
    # Up to three slots under a live autoscaler plus manual scaling.
    "autoscale": (
        FleetConfig(
            num_replicas=1,
            autoscale=AutoscaleConfig(
                min_replicas=1, max_replicas=3, scale_up_backlog=2.0,
                scale_down_backlog=0.5, alpha=1.0, cooldown_up_s=0.0,
                cooldown_down_s=1.0,
            ),
            **BASE,
        ),
        2,
        5,
    ),
    # One slot carrying up to four requests through the brownout ladder.
    "brownout": (
        FleetConfig(
            num_replicas=1,
            brownout=BrownoutConfig(
                enter_thresholds=(1.0, 2.0, 3.0), exit_fraction=0.5,
                alpha=1.0, min_dwell=1, reduced_deadline_ms=100.0,
            ),
            **BASE,
        ),
        4,
        7,
    ),
}


class Violation(AssertionError):
    pass


#: Shared between worlds: immutable, or (the generator) only drawn from for
#: respawn jitter, which ``World.key`` rounds away.
_SHARED = {
    int, float, str, bool, type(None), tuple, np.random.Generator, FleetConfig,
    AutoscaleConfig, BrownoutConfig, RetryPolicy,
}


def _clone(obj):
    """Copy a world: containers and plain objects all the way down."""
    kind = type(obj)
    if kind in _SHARED:
        return obj
    if kind is set:
        return set(obj)  # of tickets and (slot, generation) pairs
    if kind is deque:
        return deque(obj, obj.maxlen)
    if kind is list:
        return [item if type(item) in _SHARED else _clone(item) for item in obj]
    if kind is dict:
        return {k: v if type(v) in _SHARED else _clone(v) for k, v in obj.items()}
    copied = object.__new__(kind)
    copied.__dict__ = _clone(obj.__dict__)
    return copied


class World:
    """The core plus the environment the process shell would observe."""

    def __init__(self, config, max_requests):
        self.control = FleetControl(config)
        self.max_requests = max_requests
        self.now = 0.0
        self.submitted = 0
        self.admitted = set()
        self.resolved = set()
        #: (slot, generation) -> [ready still to deliver, lost delivered]
        self.processes = {}
        self.sends = set()  # (ticket, slot, generation) awaiting a reply
        self.stops = set()  # (slot, generation) awaiting ``stopped``
        self.shut = False
        self.step("start")

    def clone(self):
        return _clone(self)

    # ------------------------------------------------------------------ #
    def inputs(self):
        """Every input the shell could feed the core next."""
        control = self.control
        if not self.shut:
            if self.submitted < self.max_requests:
                yield ("submit",)
            yield ("tick",)
            yield ("hang",)
            if control.autoscaler is not None:
                yield ("set_target", 1)
                yield ("set_target", 3)
            if not control.draining:
                yield ("drain",)
            yield ("shutdown", 1.0)
        for (index, generation), (unready, lost) in sorted(self.processes.items()):
            if lost:
                continue
            if unready:
                yield ("ready", index, generation)
            elif generation == control.slots[index].generation:
                yield ("heartbeat", index, generation, {"queue_depth": 0})
            yield ("lost", index, generation, "replica process died")
        for ticket, index, generation in sorted(self.sends):
            yield ("reply", index, generation, ticket, OK)
            yield ("reply", index, generation, ticket, UNAVAILABLE)
        for index, generation in sorted(self.stops):
            yield ("stopped", index, generation)

    def step(self, event, *args):
        control = self.control
        if event == "hang":
            self.now += control.config.request_timeout_s + 1.0
            event = "tick"
        elif event == "tick":
            self.now += 1.0
        ticket = None
        if event == "submit":
            ticket = self.submitted
            self.submitted += 1
            args = (ticket, f"r{ticket}", REQUEST)
        elif event == "ready":
            self.processes[args[:2]][0] = False
        elif event == "lost":
            # EOF is a process's last signal: nothing it sent is still unread.
            self.processes[args[:2]][1] = True
            self.sends = {send for send in self.sends if send[1:] != args[:2]}
        elif event == "reply":
            self.sends.discard((args[2], args[0], args[1]))
        elif event == "stopped":
            self.stops.discard(args)
        elif event == "shutdown":
            self.shut = True
        actions = getattr(control, event)(*args, now=self.now)
        if ticket is not None and not any(
            isinstance(a, Resolve) and a.ticket == ticket for a in actions
        ):
            self.admitted.add(ticket)
        for action in actions:
            self.check_action(action)
        self.check_state()

    # ------------------------------------------------------------------ #
    def check_action(self, action):
        control = self.control
        if isinstance(action, Resolve):
            if action.ticket in self.resolved:
                raise Violation(f"ticket {action.ticket} resolved twice")
            self.resolved.add(action.ticket)
        elif isinstance(action, Stop):
            slot = control.slots[action.slot]
            orphans = [t for t, e in control.inflight.items() if e.replica == slot.index]
            if slot.assigned or orphans:
                raise Violation(f"stop of slot {slot.index} with {orphans} assigned")
            self.stops.add(action[:2])
        elif isinstance(action, Send):
            slot = control.slots[action.slot]
            process = self.processes.get(action[:2])
            if (
                slot.state != "up"
                or slot.generation != action.generation
                or process is None
                or process[0]
                or process[1]
            ):
                raise Violation(
                    f"send to slot {slot.index} gen {action.generation} "
                    f"({slot.state}, gen {slot.generation}, process {process})"
                )
            self.sends.add((action.ticket, action.slot, action.generation))
        elif isinstance(action, Spawn):
            self.processes[tuple(action)] = [True, False]

    def check_state(self):
        control = self.control
        budget = control.config.max_replica_restarts
        for slot in control.slots:
            if slot.restarts > budget:
                raise Violation(f"slot {slot.index} restarted {slot.restarts} > {budget}")
        for slot in control.slots:
            assigned = {t for t, e in control.inflight.items() if e.replica == slot.index}
            if slot.assigned != assigned:
                raise Violation(f"slot {slot.index} assigned {slot.assigned} != {assigned}")
        places = [set(control.waiting), set(control.inflight), self.resolved]
        for ticket in self.admitted:
            if sum(ticket in place for place in places) != 1:
                raise Violation(f"ticket {ticket} is not in exactly one place")
        if self.shut:
            if self.admitted - self.resolved:
                raise Violation("shutdown left admitted tickets unresolved")
            if not self.stops and any(s.state != "spare" for s in control.slots):
                raise Violation("quiescent after shutdown with a slot not spare")

    # ------------------------------------------------------------------ #
    def key(self):
        control, now = self.control, self.now

        def age(t):
            return None if t is None else max(round(t - now, 6), -HORIZON)

        slots = tuple(
            (
                s.state, s.generation, s.restarts, tuple(sorted(s.assigned)),
                math.ceil(s.respawn_at - now) if s.state == "backoff" else None,
                age(s.spawned_at) if s.state == "starting" else None,
                age(s.last_heartbeat), s.fatal, s.draining,
            )
            for s in control.slots
        )
        entries = tuple(
            sorted(
                (t, e.attempts, e.replica, age(e.created_at), age(e.assigned_at),
                 age(e.due_at))
                for t, e in list(control.inflight.items()) + list(control.waiting.items())
            )
        )
        ladders = []
        if control.brownout is not None:
            ladder = control.brownout
            ladders.append((ladder.level, ladder.smoothed, ladder._below_exit))
        if control.autoscaler is not None:
            scaler = control.autoscaler
            ladders.append(
                (scaler.target, scaler.smoothed, age(scaler._last_up), age(scaler._last_down))
            )
        environment = (
            tuple(sorted((k, v[0]) for k, v in self.processes.items() if not v[1])),
            tuple(sorted(self.sends)), tuple(sorted(self.stops)),
            self.submitted, tuple(sorted(self.admitted)), tuple(sorted(self.resolved)),
            self.shut, control.draining,
        )
        return slots, entries, tuple(ladders), environment


def explore(config, max_requests, max_depth):
    """Breadth-first over every interleaving up to ``max_depth`` inputs.

    Returns the number of distinct states, the brownout rungs entered and
    exited, and the lifecycle ``(state, next state)`` pairs taken.
    """
    start = World(config, max_requests)
    seen = {start.key()}
    queue = deque([(start, 0)])
    entered, exited, edges = set(), set(), set()
    while queue:
        world, depth = queue.popleft()
        if depth == max_depth:
            continue
        for event in world.inputs():
            child = world.clone()
            child.step(*event)
            before, after = _level(world), _level(child)
            if after != before:
                (entered if after > before else exited).add(max(before, after))
            for old, new in zip(world.control.slots, child.control.slots):
                edges.add((old.state, new.state))
            key = child.key()
            if key not in seen:
                seen.add(key)
                queue.append((child, depth + 1))
    return len(seen), entered, exited, edges


def _level(world):
    ladder = world.control.brownout
    return 0 if ladder is None else ladder.level


@functools.lru_cache(maxsize=None)
def explored(scope):
    config, max_requests, max_depth = SCOPES[scope]
    started = time.perf_counter()
    result = explore(config, max_requests, max_depth)
    print(
        f"{scope}: {result[0]} states explored to depth {max_depth} "
        f"in {time.perf_counter() - started:.1f}s"
    )
    return result


@pytest.mark.parametrize("scope", sorted(SCOPES))
def test_contracts_hold_on_every_interleaving(scope):
    states = explored(scope)[0]
    assert states > 1000


def test_every_brownout_rung_is_entered_and_exited():
    _, entered, exited, _ = explored("brownout")
    assert entered == exited == {1, 2, 3}


def test_every_lifecycle_transition_is_taken():
    taken = set().union(*(explored(scope)[3] for scope in SCOPES))
    assert {(state, following) for (state, _), following in TRANSITIONS.items()} <= taken
