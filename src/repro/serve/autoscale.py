"""Autoscaling and brownout decision logic for the serving tier.

Both controllers here are deliberately **pure**: they consume load samples
with an explicit ``now`` and emit decisions (a target replica count, a
brownout level), mutating nothing outside themselves.  The fleet's control
plane :class:`~repro.serve.control.FleetControl` feeds them and *applies*
their decisions, so every hysteresis/cooldown/ladder transition is tested
without spawning a single process, and model-checked together with the
fleet's routing and restarts.

**Autoscaler.**  :class:`Autoscaler` turns the fleet's per-replica backlog
(outstanding requests over desired replicas) into a target replica count
within ``[min_replicas, max_replicas]``.  A stuck request needs no signal of
its own: the fleet's ``request_timeout_s`` hang detector restarts its
replica.  Flap resistance comes from three places: the backlog signal is
EWMA-smoothed, the up/down thresholds are separated (hysteresis band), and
each direction has its own cooldown — scale-up is quick because queues hurt
now, scale-down is slow because respawning a replica costs a model load.

**Brownout ladder.**  :class:`BrownoutController` maps the fleet's smoothed
load onto a four-level degradation ladder; each level *adds* a cheaper
serving mode on top of the previous ones:

=====  ==============================================================
level  effect (on each request the fleet sends, or at its admission)
=====  ==============================================================
L0     normal serving
L1     impose a reduced deadline → partial plans (a valid prefix)
L2     send greedy requests to the fast fallback planner instead
L3     shed new requests with a ``Retry-After`` hint
=====  ==============================================================

:meth:`BrownoutController.apply` makes the L1 and L2 edits to a copy of the
request and names the info keys its reply gains; ``shedding`` gates
admission.

Levels *enter* when smoothed load crosses ``enter_thresholds[level-1]`` (a
spike can jump several rungs at once) and *exit* one rung at a time, only
after the load has stayed below ``exit_fraction`` of the entry threshold for
``min_dwell`` consecutive observations — so a flapping load series ratchets
up fast and climbs down slowly, never oscillating per-sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Ladder levels, for docs/dashboards; index == level.
BROWNOUT_LEVEL_NAMES = (
    "normal",
    "partial-plans",
    "fallback-planner",
    "shed",
)

MAX_BROWNOUT_LEVEL = len(BROWNOUT_LEVEL_NAMES) - 1


# ---------------------------------------------------------------------- #
# Autoscaler
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AutoscaleConfig:
    """Bounds, thresholds and flap-resistance knobs of the fleet autoscaler."""

    #: Replica-count bounds the controller may move between.
    min_replicas: int = 1
    max_replicas: int = 4
    #: Scale up when the EWMA-smoothed per-replica backlog (outstanding
    #: requests / active replicas) reaches this.
    scale_up_backlog: float = 3.0
    #: Scale down when the smoothed per-replica backlog falls to this or below.
    scale_down_backlog: float = 0.5
    #: EWMA weight of the newest backlog sample (1.0 = no smoothing).
    alpha: float = 0.5
    #: Minimum time between consecutive scale-ups.
    cooldown_up_s: float = 1.0
    #: Minimum time after *any* scaling event before a scale-down — longer
    #: than ``cooldown_up_s`` because killing warm capacity is the costly
    #: direction to be wrong about.
    cooldown_down_s: float = 5.0

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.scale_up_backlog <= self.scale_down_backlog:
            raise ValueError(
                "scale_up_backlog must exceed scale_down_backlog "
                "(the hysteresis band must have width)"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.cooldown_up_s < 0 or self.cooldown_down_s < 0:
            raise ValueError("cooldowns must not be negative")

    @classmethod
    def manual(cls, min_replicas: int, max_replicas: int) -> "AutoscaleConfig":
        """Bounds-only config: automatic decisions never fire, so the fleet
        scales exclusively through ``set_target_replicas`` — what the chaos
        tests use to drive scaling deterministically."""
        return cls(
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            scale_up_backlog=float("inf"),
            scale_down_backlog=-1.0,
        )


@dataclass
class FleetLoad:
    """One supervisor-tick sample of the signals the autoscaler consumes."""

    active_replicas: int
    #: Requests outstanding fleet-wide: assigned to replicas + waiting.
    outstanding: int

    @property
    def backlog_per_replica(self) -> float:
        return self.outstanding / max(self.active_replicas, 1)


class Autoscaler:
    """Hysteretic replica-count controller over :class:`FleetLoad` samples.

    ``observe`` returns the target replica count for *this* tick; the caller
    (the fleet supervisor) is responsible for moving the fleet toward it.
    Decisions move one replica at a time — capacity errors are corrected over
    a few ticks rather than overshooting on one noisy sample.
    """

    def __init__(
        self,
        config: AutoscaleConfig,
        initial_replicas: Optional[int] = None,
    ) -> None:
        self.config = config
        self.target = min(
            max(initial_replicas or config.min_replicas, config.min_replicas),
            config.max_replicas,
        )
        self.smoothed: Optional[float] = None
        self._last_up: Optional[float] = None
        self._last_down: Optional[float] = None
        self.events: List[Dict] = []

    # ------------------------------------------------------------------ #
    def observe(self, load: FleetLoad, now: float) -> int:
        """Fold one load sample taken at ``now``; return the target count."""
        config = self.config
        backlog = load.backlog_per_replica
        if self.smoothed is None:
            self.smoothed = backlog
        else:
            self.smoothed = config.alpha * backlog + (1 - config.alpha) * self.smoothed

        if self.smoothed >= config.scale_up_backlog and self.target < config.max_replicas:
            if self._cooled(self._last_up, config.cooldown_up_s, now):
                self._record(now, self.target, self.target + 1, "backlog-high")
                self.target += 1
                self._last_up = now
            return self.target

        # The hysteresis band keeps this branch and the one above exclusive.
        if (
            self.smoothed <= config.scale_down_backlog
            and load.outstanding <= load.active_replicas  # nothing queued deep
            and self.target > config.min_replicas
            and self._cooled(self._last_up, config.cooldown_down_s, now)
            and self._cooled(self._last_down, config.cooldown_down_s, now)
        ):
            self._record(now, self.target, self.target - 1, "backlog-low")
            self.target -= 1
            self._last_down = now
        return self.target

    def state_dict(self) -> Dict:
        return {
            "target": self.target,
            "smoothed_backlog": (
                round(self.smoothed, 4) if self.smoothed is not None else None
            ),
            "min_replicas": self.config.min_replicas,
            "max_replicas": self.config.max_replicas,
            "scale_ups": sum(1 for e in self.events if e["to"] > e["from"]),
            "scale_downs": sum(1 for e in self.events if e["to"] < e["from"]),
            "events": self.events[-32:],
        }

    # ------------------------------------------------------------------ #
    @staticmethod
    def _cooled(last: Optional[float], cooldown_s: float, now: float) -> bool:
        return last is None or now - last >= cooldown_s

    def _record(self, now: float, from_n: int, to_n: int, reason: str) -> None:
        self.events.append(
            {
                "at_s": round(now, 3),
                "from": from_n,
                "to": to_n,
                "reason": reason,
                "backlog": round(self.smoothed or 0.0, 4),
            }
        )


# ---------------------------------------------------------------------- #
# Brownout ladder
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class BrownoutConfig:
    """Entry/exit thresholds and effects of the degradation ladder.

    ``enter_thresholds[k-1]`` is the *normalized* load (queue depth over one
    batch's worth of capacity) at which level ``k`` engages.  Exit is
    hysteretic: a level is left only after the smoothed load has stayed below
    ``exit_fraction`` of its entry threshold for ``min_dwell`` consecutive
    observations, one rung at a time.
    """

    enter_thresholds: Tuple[float, ...] = (2.0, 4.0, 8.0)
    exit_fraction: float = 0.6
    #: EWMA weight of the newest load sample.
    alpha: float = 0.5
    #: Consecutive below-exit observations required before stepping down.
    min_dwell: int = 2
    #: The deadline L1 imposes on requests that arrive without a tighter one.
    reduced_deadline_ms: float = 250.0
    #: Registry key of the fast planner greedy requests go to at L2 (e.g.
    #: ``"ha"``); the reply notes ``info["degraded_from"/"degraded_to"]``.
    #: Unset, L2 behaves like L1.
    fallback_planner: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.enter_thresholds) != MAX_BROWNOUT_LEVEL:
            raise ValueError(
                f"enter_thresholds needs {MAX_BROWNOUT_LEVEL} entries "
                f"(L1..L{MAX_BROWNOUT_LEVEL}); got {len(self.enter_thresholds)}"
            )
        if any(t <= 0 for t in self.enter_thresholds):
            raise ValueError("enter_thresholds must be positive")
        if list(self.enter_thresholds) != sorted(self.enter_thresholds):
            raise ValueError("enter_thresholds must be non-decreasing")
        if not 0.0 < self.exit_fraction < 1.0:
            raise ValueError("exit_fraction must be in (0, 1)")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.min_dwell < 1:
            raise ValueError("min_dwell must be >= 1")
        if self.reduced_deadline_ms <= 0:
            raise ValueError("reduced_deadline_ms must be positive")


class BrownoutController:
    """Smoothed-load → ladder-level state machine (see module docstring)."""

    def __init__(self, config: Optional[BrownoutConfig] = None) -> None:
        self.config = config or BrownoutConfig()
        self.level = 0
        self.smoothed: Optional[float] = None
        self._below_exit = 0
        self.transitions: List[Dict] = []

    # ------------------------------------------------------------------ #
    def observe(self, load: float, now: float) -> int:
        """Fold one normalized load sample taken at ``now``; return the level."""
        config = self.config
        if self.smoothed is None:
            self.smoothed = load
        else:
            self.smoothed = config.alpha * load + (1 - config.alpha) * self.smoothed

        entered = 0
        for threshold in config.enter_thresholds:
            if self.smoothed >= threshold:
                entered += 1
            else:
                break
        if entered > self.level:  # spikes may jump several rungs at once
            self._record(now, self.level, entered)
            self.level = entered
            self._below_exit = 0
            return self.level

        if self.level > 0:
            exit_at = config.enter_thresholds[self.level - 1] * config.exit_fraction
            if self.smoothed < exit_at:
                self._below_exit += 1
                if self._below_exit >= config.min_dwell:
                    self._record(now, self.level, self.level - 1)
                    self.level -= 1
                    self._below_exit = 0
            else:
                self._below_exit = 0
        return self.level

    @property
    def shedding(self) -> bool:  # L3: admission sheds new requests
        return self.level >= MAX_BROWNOUT_LEVEL

    def apply(self, request: Dict) -> Tuple[Dict, Dict]:
        """The copy of ``request`` to send at the current level, and the info
        keys its reply gains; ``request`` itself is never changed.

        L1 stamps the tighter of the caller's deadline and the reduced one
        (a non-numeric deadline is left for the replica to reject); L2 sends
        greedy requests to ``fallback_planner``.
        """
        if self.level == 0:
            return request, {}
        sent, info = dict(request), {"brownout_level": self.level}
        reduced = self.config.reduced_deadline_ms
        deadline = request.get("deadline_ms")
        if deadline is None:
            sent["deadline_ms"] = reduced
        elif isinstance(deadline, (int, float)) and not isinstance(deadline, bool):
            sent["deadline_ms"] = min(float(deadline), reduced)
        fallback, planner = self.config.fallback_planner, request.get("planner")
        if (self.level >= 2 and fallback and request.get("greedy", True) is True
                and str(planner).lower() != fallback.lower()):
            sent["planner"] = fallback
            info.update(degraded_from=planner, degraded_to=fallback)
        return sent, info

    def state_dict(self) -> Dict:
        return {
            "level": self.level,
            "level_name": BROWNOUT_LEVEL_NAMES[self.level],
            "smoothed_load": (
                round(self.smoothed, 4) if self.smoothed is not None else None
            ),
            "transitions": len(self.transitions),
            "recent_transitions": self.transitions[-32:],
        }

    # ------------------------------------------------------------------ #
    def _record(self, now: float, from_level: int, to_level: int) -> None:
        self.transitions.append(
            {
                "at_s": round(now, 3),
                "from": from_level,
                "to": to_level,
                "load": round(self.smoothed or 0.0, 4),
            }
        )
