"""Routing and retry policy for the replica fleet (and its clients).

The router side of the serving fleet is deliberately small and pure: given
the latest per-replica bookkeeping, :func:`choose_replica` picks where the
next request goes, and :class:`RetryPolicy` decides how failed or timed-out
attempts back off before landing on a surviving replica.  Both are plain
data/functions so the chaos suites can test routing decisions without
spawning a single process.

Plan requests are idempotent — replanning the same snapshot yields the same
(or an equally valid) plan and mutates nothing — which is what makes blind
retry-on-another-replica sound.  :class:`RetryPolicy` lives in
:mod:`repro.supervise`, where it also paces replica and env-worker
respawns; the HTTP client in :mod:`repro.serve.client` uses it too, so
client- and fleet-side backoff stay consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..supervise import RetryPolicy

__all__ = ["ReplicaView", "RetryPolicy", "choose_replica"]


@dataclass
class ReplicaView:
    """What the router knows about one replica when routing a request."""

    index: int
    available: bool  # ready, alive, fresh heartbeat, not draining
    assigned: int  # requests the router has in flight on it (exact)
    queue_depth: int  # replica-reported queue depth (one heartbeat stale)


def choose_replica(replicas: Sequence[ReplicaView]) -> Optional[int]:
    """Pick the least-loaded available replica (or ``None`` if none is).

    Load is primarily the router's own in-flight count — exact, unlike the
    heartbeat-lagged queue depth, which only breaks ties.  Index breaks the
    final tie so routing is deterministic for tests.
    """
    best: Optional[ReplicaView] = None
    for view in replicas:
        if not view.available:
            continue
        if best is None or (view.assigned, view.queue_depth, view.index) < (
            best.assigned,
            best.queue_depth,
            best.index,
        ):
            best = view
    return None if best is None else best.index
