"""The inference-time decay experiment (Fig. 5).

While a rescheduling algorithm computes, VMs keep arriving and exiting, so by
the time a slow solver returns, many of its actions refer to VMs that no longer
exist or PMs that no longer have room.  The paper quantifies this by taking a
near-optimal plan and asking: *if this plan were returned after T seconds of
cluster churn, what FR would it actually achieve?*  The achieved FR stays
near-optimal below roughly five seconds and decays quickly afterwards — the
"elbow" that motivates the five-second latency budget.

:func:`achieved_fr_vs_delay` reproduces that experiment on synthetic churn:
the simulator's own arrival/exit sampler (:func:`repro.sim.trace.arrival_exit_events`)
at a flat rate, replayed through its engine (:class:`repro.sim.engine.LivingCluster`),
which picks every arriving flavor and exiting VM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cluster import ClusterState, MigrationPlan, apply_plan


@dataclass
class DelayOutcome:
    """Achieved FR when a plan lands after ``delay_s`` seconds of churn.

    ``baseline_fr`` is the FR of the churned cluster if no plan were applied at
    that moment; the *reduction* attributable to the (possibly stale) plan is
    measured against that baseline, which is what decays with delay.  The
    FRs are means over the churn replicas; ``actions_applied`` and
    ``actions_stale`` are totals over them, so the two sum to
    ``num_replicas * len(plan)``.
    """

    delay_s: float
    achieved_fr: float
    baseline_fr: float
    actions_applied: int
    actions_stale: int
    initial_fr: float

    @property
    def fr_reduction(self) -> float:
        """FR improvement the plan still delivers at this delay."""
        return self.baseline_fr - self.achieved_fr

    @property
    def stale_fraction(self) -> float:
        total = self.actions_applied + self.actions_stale
        return self.actions_stale / total if total else 0.0


def achieved_fr_vs_delay(
    state: ClusterState,
    plan: MigrationPlan,
    delays_s: Sequence[float],
    changes_per_minute: float = 60.0,
    seed: int = 0,
    num_replicas: int = 3,
) -> List[DelayOutcome]:
    """Replay churn for each delay, then apply the (now possibly stale) plan.

    For every delay the churn is re-simulated ``num_replicas`` times with
    different random streams and the achieved FR is averaged, mirroring the
    paper's averaging over initial mappings; applied and stale actions are
    counted over all replicas.
    """
    # Imported here, not at module level: the package root imports this
    # module, so every spawned fleet replica would otherwise load repro.sim.
    from ..sim.engine import LivingCluster
    from ..sim.trace import SECONDS_PER_MINUTE, arrival_exit_events

    if num_replicas <= 0:
        raise ValueError("num_replicas must be positive")
    outcomes: List[DelayOutcome] = []
    initial_fr = state.fragment_rate()
    for delay in sorted(delays_s):
        achieved, baseline, applied, stale = [], [], [], []
        for replica in range(num_replicas):
            stream_seed = seed + 1000 * replica + int(delay * 17)
            working = state.copy()
            rates = np.full(int(np.ceil(delay / SECONDS_PER_MINUTE)), changes_per_minute)
            # The events draw from their own stream, independent of the
            # engine's, which resolves each arrival's flavor and exit's VM.
            events = arrival_exit_events(np.random.default_rng([stream_seed, 1]), rates, delay)
            LivingCluster(working, events, seed=stream_seed).advance(delay)
            baseline.append(working.fragment_rate())
            final_state, result = apply_plan(working, plan, skip_infeasible=True)
            achieved.append(final_state.fragment_rate())
            applied.append(result.num_applied)
            stale.append(len(result.skipped))
        outcomes.append(
            DelayOutcome(
                delay_s=float(delay),
                achieved_fr=float(np.mean(achieved)),
                baseline_fr=float(np.mean(baseline)),
                actions_applied=sum(applied),
                actions_stale=sum(stale),
                initial_fr=initial_fr,
            )
        )
    return outcomes


def find_elbow(outcomes: Sequence[DelayOutcome], tolerance: float = 0.1) -> Optional[float]:
    """Largest delay whose FR reduction is still within ``tolerance`` of the best.

    This is the "elbow point" of Fig. 5: beyond it, the solution quality decays
    quickly.  Returns ``None`` when no outcome achieves any reduction.
    """
    if not outcomes:
        return None
    best_reduction = max(outcome.fr_reduction for outcome in outcomes)
    if best_reduction <= 0:
        return None
    elbow = None
    for outcome in sorted(outcomes, key=lambda o: o.delay_s):
        if outcome.fr_reduction >= (1.0 - tolerance) * best_reduction:
            elbow = outcome.delay_s
    return elbow


def decay_series(outcomes: Sequence[DelayOutcome]) -> Dict[str, np.ndarray]:
    """Series form of the outcomes for reporting (x: delay, y: achieved FR)."""
    ordered = sorted(outcomes, key=lambda o: o.delay_s)
    return {
        "delay_s": np.array([o.delay_s for o in ordered]),
        "achieved_fr": np.array([o.achieved_fr for o in ordered]),
        "fr_reduction": np.array([o.fr_reduction for o in ordered]),
        "stale_fraction": np.array([o.stale_fraction for o in ordered]),
    }
