"""Long-horizon metrics for the living-cluster simulator.

Two concerns live here:

* :class:`DriftMonitor` — a rolling policy-drift detector.  The online
  rescheduler feeds it one objective sample per round (the fragment rate
  *after* applying the plan); the monitor compares a recent window against
  the preceding baseline window and raises a :class:`DriftEvent` when the
  policy's steady-state quality has degraded past a relative threshold.
  Detections accumulate in :attr:`DriftMonitor.events` and every
  :class:`~repro.sim.driver.SimulationReport` carries them as
  ``drift_events``.
* summary helpers — steady-state means over the tail of a run and plan
  invalidation rates, the numbers the paper table's ``churn`` row records.

Everything is pure arithmetic over observed series — deterministic, no
clocks, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class DriftConfig:
    """Shape of the rolling drift test.

    Drift fires when ``mean(last window rounds)`` exceeds
    ``mean(previous baseline_window rounds) * (1 + threshold)``.  Higher
    objective = worse (fragment-rate semantics).  After a detection the
    monitor stays quiet for ``cooldown`` rounds so one sustained shift
    does not fire every round.
    """

    window: int = 8
    baseline_window: int = 24
    threshold: float = 0.15
    cooldown: int = 8

    def __post_init__(self) -> None:
        if self.window < 1 or self.baseline_window < 1:
            raise ValueError("window sizes must be >= 1")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.cooldown < 0:
            raise ValueError("cooldown must not be negative")


@dataclass(frozen=True)
class DriftEvent:
    """One drift detection: where, and how bad."""

    round_index: int
    recent_mean: float
    baseline_mean: float
    degradation: float

    def to_dict(self) -> Dict:
        return {
            "round_index": self.round_index,
            "recent_mean": self.recent_mean,
            "baseline_mean": self.baseline_mean,
            "degradation": self.degradation,
        }


class DriftMonitor:
    """Rolling window-vs-baseline drift detector."""

    def __init__(self, config: Optional[DriftConfig] = None) -> None:
        self.config = config if config is not None else DriftConfig()
        self.samples: List[float] = []
        self.events: List[DriftEvent] = []
        self._quiet_until = 0

    def observe(self, value: float) -> Optional[DriftEvent]:
        """Feed one per-round objective sample; returns a detection or None."""
        config = self.config
        self.samples.append(float(value))
        index = len(self.samples) - 1
        needed = config.window + config.baseline_window
        if len(self.samples) < needed or index < self._quiet_until:
            return None
        recent = self.samples[-config.window:]
        baseline = self.samples[-needed:-config.window]
        baseline_mean = sum(baseline) / len(baseline)
        recent_mean = sum(recent) / len(recent)
        scale = max(abs(baseline_mean), 1e-9)
        degradation = (recent_mean - baseline_mean) / scale
        if degradation <= config.threshold:
            return None
        event = DriftEvent(
            round_index=index,
            recent_mean=recent_mean,
            baseline_mean=baseline_mean,
            degradation=degradation,
        )
        self.events.append(event)
        self._quiet_until = index + 1 + config.cooldown
        return event


# --------------------------------------------------------------------------- #
# Run summaries
# --------------------------------------------------------------------------- #
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
