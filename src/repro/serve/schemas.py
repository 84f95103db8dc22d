"""Versioned request/response schemas of the unified planning API.

Every consumer of the system — the ``repro`` CLI, the HTTP server, tests and
benchmarks — speaks this one dialect:

* :class:`PlanRequest` carries a cluster snapshot (the ``ClusterState`` dict
  format), the planner to use, the migration limit, the objective, and
  optional per-request knobs (greedy vs. sampled planning, seed, deadline).
* :class:`PlanResponse` carries the migration plan plus the quality and
  latency metrics every benchmark reports (initial/final objective, applied
  vs. skipped migrations, end-to-end latency, queue wait, micro-batch size).
* :class:`PlanError` is the structured failure envelope; its ``code`` is a
  stable machine-readable string (``invalid_request``, ``unknown_planner``,
  ``unknown_objective``, ``deadline_exceeded``, ``service_unavailable``,
  ``internal_error``).

All three serialize to/from plain dicts and JSON.  ``version`` stamps the
schema revision so clients can negotiate forward-compatible changes.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster import ClusterState, Migration, MigrationPlan
from ..env.objectives import Objective, available_objectives, make_objective

#: Current revision of the request/response schema.
SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A request that cannot be parsed or validated; carries an error code."""

    def __init__(self, message: str, code: str = "invalid_request") -> None:
        super().__init__(message)
        self.code = code


def _require(condition: bool, message: str, code: str = "invalid_request") -> None:
    if not condition:
        raise SchemaError(message, code=code)


@dataclass
class PlanRequest:
    """One rescheduling request: a snapshot plus planning parameters.

    ``snapshot`` is the :meth:`ClusterState.to_dict` payload so requests are
    self-contained and JSON-serializable; :meth:`state` materializes it.
    ``greedy`` selects deterministic argmax planning (micro-batchable for the
    RL planner); ``greedy=False`` requests sampled / risk-seeking planning.
    ``deadline_ms`` is a soft per-request latency budget measured from the
    moment the service receives the request.
    """

    snapshot: Dict
    planner: str = "ha"
    migration_limit: int = 10
    objective: str = "fragment_rate"
    objective_params: Dict = field(default_factory=dict)
    greedy: bool = True
    seed: Optional[int] = None
    deadline_ms: Optional[float] = None
    request_id: str = ""
    version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.request_id:
            self.request_id = uuid.uuid4().hex[:12]

    # ------------------------------------------------------------------ #
    @classmethod
    def from_state(cls, state: ClusterState, **kwargs) -> "PlanRequest":
        """Build a request directly from a live :class:`ClusterState`."""
        return cls(snapshot=state.to_dict(), **kwargs)

    def state(self) -> ClusterState:
        """Materialize the carried snapshot (raises ``SchemaError`` if bad)."""
        try:
            return ClusterState.from_dict(self.snapshot)
        except Exception as exc:  # malformed payloads surface as schema errors
            raise SchemaError(f"invalid cluster snapshot: {exc}") from exc

    def build_objective(self) -> Objective:
        try:
            return make_objective(self.objective, **self.objective_params)
        except KeyError as exc:
            raise SchemaError(str(exc), code="unknown_objective") from exc
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"invalid parameters for objective {self.objective!r}: {exc}"
            ) from exc

    def validate(self) -> None:
        """Cheap structural validation (no snapshot materialization)."""
        _require(isinstance(self.version, int) and self.version >= 1,
                 f"version must be a positive integer, got {self.version!r}")
        _require(self.version <= SCHEMA_VERSION,
                 f"request version {self.version} is newer than supported {SCHEMA_VERSION}")
        _require(isinstance(self.snapshot, dict) and "pms" in self.snapshot
                 and "vms" in self.snapshot,
                 "snapshot must be a ClusterState dict with 'pms' and 'vms'")
        _require(isinstance(self.planner, str) and bool(self.planner),
                 "planner must be a non-empty string")
        _require(isinstance(self.migration_limit, int)
                 and not isinstance(self.migration_limit, bool)
                 and self.migration_limit >= 0,
                 f"migration_limit must be a non-negative integer, got {self.migration_limit!r}")
        _require(isinstance(self.greedy, bool),
                 f"greedy must be a boolean, got {self.greedy!r}")
        _require(self.objective in available_objectives(),
                 f"unknown objective {self.objective!r}; known: {available_objectives()}",
                 code="unknown_objective")
        _require(isinstance(self.objective_params, dict), "objective_params must be a dict")
        if self.deadline_ms is not None:
            _require(isinstance(self.deadline_ms, (int, float))
                     and not isinstance(self.deadline_ms, bool),
                     f"deadline_ms must be a number, got {self.deadline_ms!r}")
            _require(float(self.deadline_ms) > 0, "deadline_ms must be positive")
        if self.seed is not None:
            _require(isinstance(self.seed, int) and not isinstance(self.seed, bool),
                     "seed must be an integer")

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {
            "version": self.version,
            "request_id": self.request_id,
            "planner": self.planner,
            "migration_limit": self.migration_limit,
            "objective": self.objective,
            "objective_params": dict(self.objective_params),
            "greedy": self.greedy,
            "seed": self.seed,
            "deadline_ms": self.deadline_ms,
            "snapshot": self.snapshot,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PlanRequest":
        _require(isinstance(payload, dict), "request payload must be a JSON object")
        known = {
            "version", "request_id", "planner", "migration_limit", "objective",
            "objective_params", "greedy", "seed", "deadline_ms", "snapshot",
        }
        unknown = set(payload) - known
        _require(not unknown, f"unknown request fields: {sorted(unknown)}")
        _require("snapshot" in payload, "request is missing the cluster 'snapshot'")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            # Coerce numeric strings etc. here so a bad value can never reach
            # the service's deadline comparisons as a non-float — but not a
            # JSON boolean, which float() would turn into a 1 ms deadline.
            _require(not isinstance(deadline_ms, bool),
                     f"deadline_ms must be a number, got {deadline_ms!r}")
            try:
                deadline_ms = float(deadline_ms)
            except (TypeError, ValueError):
                raise SchemaError(f"deadline_ms must be a number, got {deadline_ms!r}")
        return cls(
            snapshot=payload["snapshot"],
            planner=payload.get("planner", "ha"),
            migration_limit=payload.get("migration_limit", 10),
            objective=payload.get("objective", "fragment_rate"),
            objective_params=payload.get("objective_params") or {},
            greedy=payload.get("greedy", True),
            seed=payload.get("seed"),
            deadline_ms=deadline_ms,
            request_id=payload.get("request_id", ""),
            version=payload.get("version", SCHEMA_VERSION),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "PlanRequest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"request is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


@dataclass
class PlanResponse:
    """A successful planning result with quality and latency metrics.

    ``migrations`` is the ordered plan as ``{vm_id, dest_pm_id, dest_numa_id}``
    dicts (``dest_numa_id`` may be null — the applier then best-fits the NUMA).
    ``metrics`` always contains ``latency_ms`` (service receive → response),
    ``queue_ms`` (time spent waiting for a micro-batch slot), ``batch_size``
    (number of requests that shared the model forward) and ``inference_ms``
    (planner compute time).

    ``partial=True`` marks a best-effort plan cut short by the request's
    ``deadline_ms`` budget: every migration in it is valid and applicable,
    but the planner stopped before exhausting the migration limit.  It is
    the one answer to an expired budget.
    """

    request_id: str
    planner: str
    migrations: List[Dict] = field(default_factory=list)
    initial_objective: float = 0.0
    final_objective: float = 0.0
    num_applied: int = 0
    num_skipped: int = 0
    partial: bool = False
    metrics: Dict = field(default_factory=dict)
    info: Dict = field(default_factory=dict)
    version: int = SCHEMA_VERSION

    ok = True

    @property
    def num_migrations(self) -> int:
        return len(self.migrations)

    def plan(self) -> MigrationPlan:
        """The response's migrations as an applicable :class:`MigrationPlan`."""
        return MigrationPlan(
            [
                Migration(
                    vm_id=int(step["vm_id"]),
                    dest_pm_id=int(step["dest_pm_id"]),
                    dest_numa_id=(
                        None if step.get("dest_numa_id") is None
                        else int(step["dest_numa_id"])
                    ),
                )
                for step in self.migrations
            ]
        )

    @staticmethod
    def migrations_payload(plan: MigrationPlan) -> List[Dict]:
        return [
            {
                "vm_id": migration.vm_id,
                "dest_pm_id": migration.dest_pm_id,
                "dest_numa_id": migration.dest_numa_id,
            }
            for migration in plan
        ]

    def to_dict(self) -> Dict:
        return {
            "version": self.version,
            "ok": True,
            "request_id": self.request_id,
            "planner": self.planner,
            "migrations": list(self.migrations),
            "initial_objective": self.initial_objective,
            "final_objective": self.final_objective,
            "num_migrations": self.num_migrations,
            "num_applied": self.num_applied,
            "num_skipped": self.num_skipped,
            "partial": self.partial,
            "metrics": dict(self.metrics),
            "info": dict(self.info),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PlanResponse":
        return cls(
            request_id=payload["request_id"],
            planner=payload["planner"],
            migrations=list(payload.get("migrations", [])),
            initial_objective=float(payload.get("initial_objective", 0.0)),
            final_objective=float(payload.get("final_objective", 0.0)),
            num_applied=int(payload.get("num_applied", 0)),
            num_skipped=int(payload.get("num_skipped", 0)),
            partial=bool(payload.get("partial", False)),
            metrics=dict(payload.get("metrics", {})),
            info=dict(payload.get("info", {})),
            version=int(payload.get("version", SCHEMA_VERSION)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"), default=str)


@dataclass
class PlanError:
    """A structured planning failure (never raises across the API boundary).

    ``retry_after_s`` is an optional backoff hint attached to *transient*
    errors (load shedding, a draining replica): the condition is expected to
    clear, and a well-behaved client should wait roughly this long before
    retrying.  The HTTP server surfaces it as a ``Retry-After`` header.
    """

    request_id: str
    code: str
    message: str
    retry_after_s: Optional[float] = None
    version: int = SCHEMA_VERSION

    ok = False

    def to_dict(self) -> Dict:
        payload = {
            "version": self.version,
            "ok": False,
            "request_id": self.request_id,
            "code": self.code,
            "message": self.message,
        }
        if self.retry_after_s is not None:
            payload["retry_after_s"] = self.retry_after_s
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "PlanError":
        retry_after_s = payload.get("retry_after_s")
        return cls(
            request_id=payload.get("request_id", ""),
            code=payload.get("code", "internal_error"),
            message=payload.get("message", ""),
            retry_after_s=None if retry_after_s is None else float(retry_after_s),
            version=int(payload.get("version", SCHEMA_VERSION)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def response_from_dict(payload: Dict):
    """Parse a service reply into :class:`PlanResponse` or :class:`PlanError`."""
    if payload.get("ok", True):
        return PlanResponse.from_dict(payload)
    return PlanError.from_dict(payload)
