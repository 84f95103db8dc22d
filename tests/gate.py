"""A planner that holds the service's queue worker until the test opens it.

Tests that need requests to sit in the queue (deadline expiry at dequeue,
several requests taken by one dispatch) submit one request to a
:class:`GatePlanner`, wait until the worker is inside it, queue what they
need, and only then :meth:`~GatePlanner.open` the gate.  No timing window is
involved: the worker is provably busy while the queue fills.
"""

from __future__ import annotations

import threading

from repro.serve import Planner

#: Longest a test waits on the gate before failing instead of hanging.
TIMEOUT_S = 60.0


class GatePlanner(Planner):
    """Delegates to ``inner`` once the gate is open; ``plan`` blocks until then."""

    def __init__(self, inner: Planner) -> None:
        self._inner = inner
        self._entered = threading.Event()
        self._open = threading.Event()
        self.name = "gate"
        self.capabilities = inner.capabilities

    def plan(self, state, migration_limit, objective=None, greedy=True, seed=None):
        self._entered.set()
        if not self._open.wait(TIMEOUT_S):
            raise TimeoutError("gate was never opened")
        return self._inner.plan(
            state, migration_limit, objective=objective, greedy=greedy, seed=seed
        )

    def wait_entered(self) -> None:
        """Block until a worker is inside ``plan`` (fails after the timeout)."""
        assert self._entered.wait(TIMEOUT_S), "the worker never reached the gate"

    def open(self) -> None:
        self._open.set()
