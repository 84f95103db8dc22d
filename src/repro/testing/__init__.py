"""Test-support subsystems shipped with the library (fault injection and
reference planners)."""

from .faults import (
    CRASH_EXIT_CODE,
    Fault,
    FaultInjected,
    FaultPlan,
    FaultyEnv,
    FaultyPlanner,
    FaultyRegistryFactory,
    LoadSpike,
    faulty_factories,
    kill_replica,
    malformed_http_payloads,
    oversized_body,
    slow_replica_factory,
)
from .reference import FreshRLPlanner

__all__ = [
    "CRASH_EXIT_CODE",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "FaultyEnv",
    "FaultyPlanner",
    "FaultyRegistryFactory",
    "FreshRLPlanner",
    "LoadSpike",
    "faulty_factories",
    "kill_replica",
    "malformed_http_payloads",
    "oversized_body",
    "slow_replica_factory",
]
