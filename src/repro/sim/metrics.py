"""Long-horizon metrics for the living-cluster simulator.

Steady-state means over the tail of a run and plan invalidation rates, the
numbers the paper table's ``churn`` row records.  Pure arithmetic over
observed series — deterministic, no clocks, no randomness.
"""

from __future__ import annotations

from typing import Sequence


def steady_state_mean(series: Sequence[float], tail_fraction: float = 0.5) -> float:
    """Mean of the trailing ``tail_fraction`` of a series (warm-up excluded)."""
    if not series:
        return float("nan")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    start = min(len(series) - 1, int(len(series) * (1.0 - tail_fraction)))
    tail = series[start:]
    return float(sum(tail) / len(tail))


def invalidation_rate(planned: int, invalidated: int) -> float:
    """Fraction of planned migrations churn invalidated before application."""
    if planned <= 0:
        return 0.0
    return invalidated / planned
