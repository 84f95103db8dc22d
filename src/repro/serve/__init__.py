"""Unified planning service: one request/response API for every algorithm.

* :mod:`repro.serve.schemas` — versioned :class:`PlanRequest` /
  :class:`PlanResponse` / :class:`PlanError` with JSON round-tripping
* :mod:`repro.serve.registry` — the :class:`Planner` protocol and the
  registry unifying the VMR2L agent and every baseline
* :mod:`repro.serve.service` — :class:`ReschedulingService`, which validates,
  dispatches and micro-batches concurrent RL requests onto the vectorized
  ``act_batch`` hot path
* :mod:`repro.serve.server` — a stdlib ThreadingHTTPServer JSON frontend
  (``repro serve``)
* :mod:`repro.serve.fleet` / :mod:`repro.serve.control` — the self-healing
  replica fleet (``repro serve --replicas N``): supervised serving
  processes over shared read-only weights, health-checked routing, bounded
  retries, graceful drain, autoscaling and the brownout ladder — every
  decision made by one pure, model-checked state machine, the processes and
  pipes kept in a shell
* :mod:`repro.serve.shared_weights` — :class:`SharedModuleWeights`, the
  fleet's one read-only copy of the policy weights in shared memory
* :mod:`repro.serve.client` — retrying HTTP client (``repro plan --url``)

See ``docs/serving.md`` for the API reference and a curl example, and
``docs/robustness.md`` for the failure-mode contract the fleet upholds.
"""

from ..supervise import RetryPolicy
from .autoscale import (
    BROWNOUT_LEVEL_NAMES,
    AutoscaleConfig,
    Autoscaler,
    BrownoutConfig,
    BrownoutController,
    FleetLoad,
)
from .client import PlanningClient
from .fleet import DefaultRegistryFactory, FleetConfig, ReplicaFleet
from .registry import (
    BaselinePlanner,
    Planner,
    PlannerRegistry,
    RLPlanner,
    build_default_registry,
)
from .schemas import (
    SCHEMA_VERSION,
    PlanError,
    PlanRequest,
    PlanResponse,
    SchemaError,
    response_from_dict,
)
from .server import PlanningServer
from .service import ReschedulingService, ServiceConfig

__all__ = [
    "BROWNOUT_LEVEL_NAMES",
    "SCHEMA_VERSION",
    "AutoscaleConfig",
    "Autoscaler",
    "BaselinePlanner",
    "BrownoutConfig",
    "BrownoutController",
    "FleetLoad",
    "DefaultRegistryFactory",
    "FleetConfig",
    "Planner",
    "PlannerRegistry",
    "PlanError",
    "PlanRequest",
    "PlanResponse",
    "PlanningClient",
    "PlanningServer",
    "ReplicaFleet",
    "ReschedulingService",
    "RetryPolicy",
    "RLPlanner",
    "SchemaError",
    "ServiceConfig",
    "build_default_registry",
    "response_from_dict",
]
