"""Trace sources for the living-cluster simulator.

A *trace* is a time-ordered stream of :class:`~repro.cluster.events.ClusterEvent`
covering a long horizon (hours to days of simulated time).  Two sources:

* :class:`SyntheticTrace` — seeded synthetic churn drawn from a workload
  family (``diurnal``, ``flash_crowd``, ``abnormal`` — see
  :func:`repro.datasets.family_rate_profile`) plus low-rate structural
  events: VM resizes, PM maintenance drains, PM failures and PM re-adds.
  The same ``(family, seed, horizon, rates)`` always produces the identical
  event list, which is what makes whole simulation runs reproducible.
* the JSONL trace format — :func:`save_trace` / :func:`load_trace` persist
  any event stream (synthetic or recorded from a live system) as one header
  line plus one :meth:`ClusterEvent.to_dict` line per event, so long
  horizons replay bit-identically across machines and sessions.

The arrival/exit part of a day is :func:`arrival_exit_events`, which the
Fig. 5 experiment (:func:`repro.analysis.achieved_fr_vs_delay`) also draws
its churn from, at a flat rate.

Synthetic events carry *no* target: which flavor arrives, which VM exits or
which PM drains is resolved by the :class:`~repro.sim.engine.LivingCluster`
engine from its own seeded generator when the event applies, because it
depends on the cluster state at that time.  Recorded traces may pin explicit
flavors and ids, and the engine honors them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import ClusterEvent
from ..cluster.state import int_field
from ..datasets.workloads import (
    ARRIVAL_FRACTION,
    MINUTES_PER_DAY,
    WORKLOAD_FAMILIES,
    family_rate_profile,
)

#: Trace file format marker + revision.
TRACE_FORMAT = "repro-sim-trace"
TRACE_VERSION = 1

SECONDS_PER_MINUTE = 60.0


@dataclass(frozen=True)
class ChurnSpec:
    """Rates of the synthetic event process (all deterministic given a seed).

    ``peak_per_minute`` / ``trough_per_minute`` shape the arrival/exit family
    profile (see :func:`repro.datasets.family_rate_profile`); the defaults
    are scaled for the small test clusters — production-scale Fig. 1 rates
    (80/min) would drown a 24-PM cluster in failed arrivals.
    """

    family: str = "diurnal"
    peak_per_minute: float = 2.0
    trough_per_minute: float = 0.2
    #: Expected VM resizes per simulated hour.
    resizes_per_hour: float = 1.0
    #: Expected PM maintenance drains per simulated day.
    drains_per_day: float = 2.0
    #: Expected PM failures per simulated day.
    failures_per_day: float = 1.0
    #: Expected PM additions per simulated day (replacement capacity, newer
    #: hardware generations).
    adds_per_day: float = 3.0

    def __post_init__(self) -> None:
        key = self.family.lower().replace("-", "_")
        if key not in WORKLOAD_FAMILIES:
            raise ValueError(
                f"unknown workload family {self.family!r}; known: {WORKLOAD_FAMILIES}"
            )
        if self.peak_per_minute <= 0 or self.trough_per_minute <= 0:
            raise ValueError("per-minute rates must be positive")
        for name in ("resizes_per_hour", "drains_per_day", "failures_per_day", "adds_per_day"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")

    def to_dict(self) -> Dict:
        return {
            "family": self.family,
            "peak_per_minute": self.peak_per_minute,
            "trough_per_minute": self.trough_per_minute,
            "resizes_per_hour": self.resizes_per_hour,
            "drains_per_day": self.drains_per_day,
            "failures_per_day": self.failures_per_day,
            "adds_per_day": self.adds_per_day,
        }


def arrival_exit_events(
    rng: np.random.Generator,
    rates: np.ndarray,
    horizon_s: float,
    offset_s: float = 0.0,
) -> List[ClusterEvent]:
    """Arrivals and exits over consecutive minutes with per-minute ``rates``.

    Minute ``m`` starts at ``offset_s + 60 m`` and holds a Poisson number of
    changes at ``rates[m]``, at uniform times inside the minute; each change
    is an arrival with probability ``ARRIVAL_FRACTION`` and an exit
    otherwise.  Changes at or after ``horizon_s`` are dropped, and no event
    carries a target.
    """
    counts = rng.poisson(rates)
    events: List[ClusterEvent] = []
    for minute in np.nonzero(counts)[0]:
        count = int(counts[minute])
        times = offset_s + (minute + rng.random(count)) * SECONDS_PER_MINUTE
        arrivals = rng.random(count) < ARRIVAL_FRACTION
        for time_s, is_arrival in zip(times, arrivals):
            if time_s < horizon_s:
                events.append(
                    ClusterEvent(time_s=float(time_s), kind="arrival" if is_arrival else "exit")
                )
    return events


class SyntheticTrace:
    """Seeded synthetic event stream over an arbitrary horizon.

    Arrivals and exits are :func:`arrival_exit_events` under the family's
    rate profile (a fresh profile is drawn per simulated day, so
    ``flash_crowd`` spikes and ``abnormal`` regimes move around day to day).
    Structural events (resize / drain / fail / add) are independent Poisson
    processes at the :class:`ChurnSpec` rates.
    Everything is drawn from one ``default_rng(seed)``, so equal seeds give
    equal streams.
    """

    def __init__(self, spec: Optional[ChurnSpec] = None, seed: int = 0) -> None:
        self.spec = spec if spec is not None else ChurnSpec()
        self.seed = int(seed)

    def generate(self, horizon_s: float) -> List[ClusterEvent]:
        """All events with ``time_s < horizon_s``, time-sorted."""
        if horizon_s <= 0:
            return []
        spec = self.spec
        rng = np.random.default_rng(self.seed)
        events: List[ClusterEvent] = []

        num_days = int(np.ceil(horizon_s / (MINUTES_PER_DAY * SECONDS_PER_MINUTE)))
        for day in range(num_days):
            rates = family_rate_profile(
                spec.family, rng, spec.peak_per_minute, spec.trough_per_minute
            )
            day_offset_s = day * MINUTES_PER_DAY * SECONDS_PER_MINUTE
            events.extend(arrival_exit_events(rng, rates, horizon_s, day_offset_s))

        hours = horizon_s / 3600.0
        days = horizon_s / 86400.0
        for kind, expected in (
            ("resize", spec.resizes_per_hour * hours),
            ("pm_drain", spec.drains_per_day * days),
            ("pm_fail", spec.failures_per_day * days),
            ("pm_add", spec.adds_per_day * days),
        ):
            count = int(rng.poisson(expected)) if expected > 0 else 0
            for time_s in rng.random(count) * horizon_s:
                events.append(ClusterEvent(time_s=float(time_s), kind=kind))

        events.sort(key=lambda e: (e.time_s, e.kind))
        return events


# --------------------------------------------------------------------------- #
# JSONL record / replay
# --------------------------------------------------------------------------- #
def save_trace(
    events: Sequence[ClusterEvent],
    path,
    meta: Optional[Dict] = None,
) -> Path:
    """Persist an event stream as JSONL: one header line, one line per event."""
    path = Path(path)
    header = {"format": TRACE_FORMAT, "version": TRACE_VERSION,
              "num_events": len(events)}
    if meta:
        header["meta"] = dict(meta)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, separators=(",", ":")) + "\n")
        for event in events:
            handle.write(json.dumps(event.to_dict(), separators=(",", ":")) + "\n")
    return path


def load_trace(path) -> Tuple[Dict, List[ClusterEvent]]:
    """Load a JSONL trace; returns ``(header, events)`` (events time-sorted).
    A malformed header or event raises ``ValueError`` naming the file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline()
        if not first.strip():
            raise ValueError(f"{path} is empty — not a trace file")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: bad trace header: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
            raise ValueError(f"{path} is not a {TRACE_FORMAT} file")
        try:
            version = int_field(header.get("version", 0), "version")
            declared = header.get("num_events")
            if declared is not None:
                declared = int_field(declared, "num_events")
            meta = header.get("meta", {})
            if not isinstance(meta, dict):
                raise ValueError(f"meta must be an object, got {meta!r}")
            horizon_s = meta.get("horizon_s", 1.0)
            if type(horizon_s) not in (int, float) or not 0 < horizon_s < math.inf:
                raise ValueError(f"meta.horizon_s must be a finite positive number, got {horizon_s!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: bad trace header: {exc}") from exc
        if version > TRACE_VERSION:
            raise ValueError(
                f"{path}: trace version {version} is newer than supported {TRACE_VERSION}"
            )
        events = []
        for line_number, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                events.append(ClusterEvent.from_dict(json.loads(line)))
            except (ValueError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}:{line_number}: bad trace event: {exc}") from exc
    events.sort(key=lambda e: (e.time_s, e.kind))
    if declared is not None and declared != len(events):
        raise ValueError(
            f"{path}: header declares {declared} events but file holds {len(events)} "
            "(truncated recording?)"
        )
    return header, events
