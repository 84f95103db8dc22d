"""Workload levels and the Fig. 1 / Fig. 15 workload characterizations.

The paper defines "workload" as the percentage of CPU used on PMs and studies
three strictly non-overlapping levels (Fig. 15): Low, Middle and High, where
the main Medium dataset corresponds to the High workload.  Table 5 and Fig. 19
evaluate generalization across these levels.

This module maps workload levels to generator specs, produces the CPU-usage
CDF of Fig. 15 and the daily arrival/exit series of Fig. 1, and holds every
per-minute change-rate profile the simulator's churn is drawn from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cluster import ClusterState
from .generator import ClusterSpec, SnapshotGenerator, get_spec

MINUTES_PER_DAY = 24 * 60

#: Share of VM changes that are arrivals; the rest are exits.
ARRIVAL_FRACTION = 0.5

#: Hour of the day at which the diurnal change rate peaks (Fig. 1).
DIURNAL_PEAK_HOUR = 14.0

#: Fig. 1's production-scale change rates, in VMs per minute.
FIG1_PEAK_PER_MINUTE = 80.0
FIG1_TROUGH_PER_MINUTE = 6.0

#: Target PM CPU-utilization bands for the three workload levels of Fig. 15.
#: The bands are strictly non-overlapping, matching the paper's statement that
#: no training sample of one level has a workload similar to another level.
WORKLOAD_BANDS: Dict[str, tuple] = {
    "low": (0.30, 0.45),
    "middle": (0.50, 0.65),
    "high": (0.70, 0.90),
}


@dataclass(frozen=True)
class WorkloadLevel:
    """A named workload level with its utilization band."""

    name: str
    min_utilization: float
    max_utilization: float

    @property
    def center(self) -> float:
        return 0.5 * (self.min_utilization + self.max_utilization)

    def contains(self, utilization: float) -> bool:
        return self.min_utilization <= utilization <= self.max_utilization


def get_workload_level(name: str) -> WorkloadLevel:
    key = name.lower()
    aliases = {"l": "low", "m": "middle", "medium": "middle", "mid": "middle", "h": "high"}
    key = aliases.get(key, key)
    if key not in WORKLOAD_BANDS:
        raise KeyError(f"unknown workload level {name!r}; known: {sorted(WORKLOAD_BANDS)}")
    low, high = WORKLOAD_BANDS[key]
    return WorkloadLevel(name=key, min_utilization=low, max_utilization=high)


def spec_for_workload(
    level: str, base: str = "small", **overrides
) -> ClusterSpec:
    """Return a cluster spec whose target utilization sits in the level's band."""
    workload = get_workload_level(level)
    spec = get_spec(base, **overrides)
    return replace(
        spec,
        name=f"{spec.name}-{workload.name}",
        target_utilization=workload.center,
        utilization_jitter=(workload.max_utilization - workload.min_utilization) / 6.0,
    )


def generate_workload_snapshots(
    level: str,
    count: int,
    base: str = "small",
    seed: int = 0,
    **overrides,
) -> List[ClusterState]:
    """Generate ``count`` snapshots at the requested workload level."""
    spec = spec_for_workload(level, base=base, **overrides)
    generator = SnapshotGenerator(spec, seed=seed)
    return generator.generate_many(count)


def cpu_usage_samples(states: Sequence[ClusterState]) -> np.ndarray:
    """Per-PM CPU usage across snapshots (the samples behind Fig. 15's CDF)."""
    usages = [
        1.0 - soa.numa_free_cpu.sum(axis=1) / soa.numa_cap_cpu.sum(axis=1)
        for soa in (state.arrays() for state in states)
    ]
    return np.concatenate(usages) if usages else np.zeros(0)


def cpu_usage_cdf(states: Sequence[ClusterState], grid: Optional[np.ndarray] = None) -> Dict[str, np.ndarray]:
    """Empirical CDF of per-PM CPU usage (Fig. 15)."""
    samples = cpu_usage_samples(states)
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)
    if samples.size == 0:
        return {"cpu_usage": grid, "cdf": np.zeros_like(grid)}
    sorted_samples = np.sort(samples)
    cdf = np.searchsorted(sorted_samples, grid, side="right") / sorted_samples.size
    return {"cpu_usage": grid, "cdf": cdf}


def daily_arrival_exit_series(seed: int = 0, days: int = 30) -> Dict[str, np.ndarray]:
    """Average VM arrivals/exits per minute over ``days`` days (Fig. 1).

    Each day draws Poisson change counts per minute under the diurnal
    profile at Fig. 1's rates and splits them binomially into arrivals and
    exits.  Returns the per-minute mean arrival, exit and total-change
    counts along with the minute index, mirroring the series plotted by the
    paper.
    """
    if days <= 0:
        raise ValueError("days must be positive")
    rng = np.random.default_rng(seed)
    rates = diurnal_rate_profile(FIG1_PEAK_PER_MINUTE, FIG1_TROUGH_PER_MINUTE)
    arrival_stack = []
    exit_stack = []
    for _ in range(days):
        totals = rng.poisson(rates)
        arrivals = rng.binomial(totals, ARRIVAL_FRACTION)
        arrival_stack.append(arrivals)
        exit_stack.append(totals - arrivals)
    arrivals = np.mean(arrival_stack, axis=0)
    exits = np.mean(exit_stack, axis=0)
    return {
        "minute": np.arange(arrivals.size),
        "arrivals": arrivals,
        "exits": exits,
        "total": arrivals + exits,
    }


def offpeak_minute(series: Dict[str, np.ndarray]) -> int:
    """The minute of the day with the fewest VM changes (when VMR runs)."""
    return int(np.argmin(series["total"]))


# --------------------------------------------------------------------------- #
# Workload families for the living-cluster simulator (repro.sim)
# --------------------------------------------------------------------------- #
#: Synthetic churn families the trace-driven simulator supports.
WORKLOAD_FAMILIES = ("diurnal", "flash_crowd", "abnormal")

#: Standard deviation, in minutes, of a flash-crowd spike.
SPIKE_WIDTH_MINUTES = 20.0

#: Length, in minutes, of one rate regime of an abnormal day.
ABNORMAL_SEGMENT_MINUTES = 90


def diurnal_rate_profile(peak_per_minute: float, trough_per_minute: float) -> np.ndarray:
    """Per-minute VM change rate over a day (the green curve of Fig. 1).

    A raised cosine with its maximum at ``DIURNAL_PEAK_HOUR`` and minimum 12
    hours away, matching the qualitative shape reported by the paper (busy
    afternoon, quiet early morning around 4–6 am when VMR runs).
    """
    if peak_per_minute <= trough_per_minute:
        raise ValueError("peak rate must exceed trough rate")
    minutes = np.arange(MINUTES_PER_DAY)
    phase = 2.0 * np.pi * (minutes / 60.0 - DIURNAL_PEAK_HOUR) / 24.0
    shape = 0.5 * (1.0 + np.cos(phase))
    return trough_per_minute + (peak_per_minute - trough_per_minute) * shape


def flash_crowd_rate_profile(
    base_per_minute: float = 6.0,
    spike_per_minute: float = 120.0,
    spike_minutes: Sequence[int] = (11 * 60, 20 * 60),
) -> np.ndarray:
    """Per-minute change rate for a flash-crowd day: calm baseline + spikes.

    Each entry of ``spike_minutes`` is the center of a Gaussian burst of
    arrivals (a product launch, a breaking-news surge) whose peak adds
    ``spike_per_minute - base_per_minute`` on top of the flat baseline.
    """
    if spike_per_minute <= base_per_minute:
        raise ValueError("spike rate must exceed the baseline rate")
    minutes = np.arange(MINUTES_PER_DAY)
    rates = np.full(MINUTES_PER_DAY, float(base_per_minute))
    for center in spike_minutes:
        bump = np.exp(-0.5 * ((minutes - float(center)) / SPIKE_WIDTH_MINUTES) ** 2)
        rates += (spike_per_minute - base_per_minute) * bump
    return rates


def abnormal_rate_profile(
    rng: np.random.Generator,
    low_per_minute: float = 3.0,
    high_per_minute: float = 60.0,
) -> np.ndarray:
    """Per-minute change rate for an abnormal day: regime-switching bursts.

    The day is cut into ``ABNORMAL_SEGMENT_MINUTES`` segments, each drawing
    its own rate log-uniformly between the low and high levels — the "abnormal
    workload" analogue of Table 5, where the mix looks nothing like the
    diurnal training distribution.  Deterministic given ``rng``.
    """
    if low_per_minute <= 0 or high_per_minute <= low_per_minute:
        raise ValueError("need 0 < low_per_minute < high_per_minute")
    num_segments = -(-MINUTES_PER_DAY // ABNORMAL_SEGMENT_MINUTES)
    levels = np.exp(
        rng.uniform(np.log(low_per_minute), np.log(high_per_minute), size=num_segments)
    )
    return np.repeat(levels, ABNORMAL_SEGMENT_MINUTES)[:MINUTES_PER_DAY]


def family_rate_profile(
    family: str, rng: np.random.Generator, peak_per_minute: float, trough_per_minute: float
) -> np.ndarray:
    """One day's per-minute change rates for a named workload family.

    ``diurnal`` is the Fig. 1 raised cosine; ``flash_crowd`` is a calm
    baseline with sharp bursts; ``abnormal`` switches regimes every ~90
    minutes.  Only ``abnormal`` (regime draws) and ``flash_crowd`` (spike
    centers) consume randomness, so the stream stays reproducible per day.
    """
    key = family.lower().replace("-", "_")
    if key == "diurnal":
        return diurnal_rate_profile(peak_per_minute, trough_per_minute)
    if key == "flash_crowd":
        centers = rng.integers(0, MINUTES_PER_DAY, size=2)
        return flash_crowd_rate_profile(
            base_per_minute=trough_per_minute,
            spike_per_minute=max(peak_per_minute, trough_per_minute * 1.5 + 1.0),
            spike_minutes=[int(c) for c in centers],
        )
    if key == "abnormal":
        return abnormal_rate_profile(
            rng,
            low_per_minute=max(trough_per_minute / 2.0, 1e-3),
            high_per_minute=max(peak_per_minute, trough_per_minute + 1e-3),
        )
    raise KeyError(f"unknown workload family {family!r}; known: {WORKLOAD_FAMILIES}")
