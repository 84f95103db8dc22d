"""Correctness check run on every reply of every pass.

A reply passes when it is a complete :class:`PlanResponse`, stays within the
migration limit, replays step by step on a fresh copy of the request's
snapshot, and reports the fragment rate the replay reaches.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Optional, Tuple

from repro.cluster import ClusterState, apply_plan
from repro.serve import PlanRequest, PlanResponse

from .spans import Tracer

FR_TOLERANCE = 1e-9


def check_reply(
    request: PlanRequest, reply, tracer: Optional[Tracer] = None
) -> Tuple[Optional[str], Optional[float]]:
    """``(reason, fragment_rate_after)``; ``reason`` is ``None`` on a pass."""
    tracer = tracer or Tracer(enabled=False)
    if not isinstance(reply, PlanResponse):
        return f"error:{getattr(reply, 'code', type(reply).__name__)}", None
    if reply.partial:
        return "partial", None
    if len(reply.migrations) > request.migration_limit:
        return "over_migration_limit", None
    with tracer.span("cluster.from_dict", request.request_id):
        state = ClusterState.from_dict(request.snapshot)
    with tracer.span("cluster.apply_plan", request.request_id):
        try:
            apply_plan(state, reply.plan(), skip_infeasible=False, in_place=True)
        except ValueError:
            return "infeasible_migration", None
        after = state.fragment_rate()
    if abs(after - reply.final_objective) > FR_TOLERANCE:
        return "final_objective_mismatch", after
    return None, after


def plan_sha(plans: Iterable) -> str:
    """SHA-256 over plans in order, so two commits can be compared by eye."""
    digest = hashlib.sha256()
    for migrations in plans:
        digest.update(json.dumps(migrations, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]
