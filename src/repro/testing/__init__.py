"""Test-support subsystems shipped with the library (serving fault injection
and reference planners)."""

from .faults import (
    CRASH_EXIT_CODE,
    FaultInjected,
    FaultyPlanner,
    FaultyRegistryFactory,
    LoadSpike,
    kill_replica,
    malformed_http_payloads,
    oversized_body,
    slow_replica_factory,
)
from .reference import FreshRLPlanner

__all__ = [
    "CRASH_EXIT_CODE",
    "FaultInjected",
    "FaultyPlanner",
    "FaultyRegistryFactory",
    "FreshRLPlanner",
    "LoadSpike",
    "kill_replica",
    "malformed_http_payloads",
    "oversized_body",
    "slow_replica_factory",
]
