"""Test-support subsystems shipped with the library (serving fault injection
and reference planners)."""

from .faults import (
    CRASH_EXIT_CODE,
    FaultInjected,
    FaultyPlanner,
    FaultyRegistryFactory,
    kill_replica,
    malformed_http_payloads,
    oversized_body,
)
from .reference import FreshRLPlanner

__all__ = [
    "CRASH_EXIT_CODE",
    "FaultInjected",
    "FaultyPlanner",
    "FaultyRegistryFactory",
    "FreshRLPlanner",
    "kill_replica",
    "malformed_http_payloads",
    "oversized_body",
]
