"""Long-horizon metrics for the living-cluster simulator.

Steady-state means over the tail of a run and plan invalidation rates, the
numbers the paper table's ``churn`` row records.  Pure arithmetic over
observed series — deterministic, no clocks, no randomness.
"""

from __future__ import annotations

from typing import Sequence

#: Trailing fraction of a run's rounds that counts as steady state.
STEADY_STATE_FRACTION = 0.5


def steady_state_mean(series: Sequence[float]) -> float:
    """Mean of the trailing ``STEADY_STATE_FRACTION`` of a series (warm-up excluded)."""
    if not series:
        return float("nan")
    start = min(len(series) - 1, int(len(series) * (1.0 - STEADY_STATE_FRACTION)))
    tail = series[start:]
    return float(sum(tail) / len(tail))


def invalidation_rate(planned: int, invalidated: int) -> float:
    """Fraction of planned migrations churn invalidated before application."""
    if planned <= 0:
        return 0.0
    return invalidated / planned
