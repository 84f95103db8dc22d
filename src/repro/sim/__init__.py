"""Living-cluster simulator: trace-driven online rescheduling under churn.

The rest of the repo evaluates planners on frozen snapshots — one state in,
one plan out.  This subpackage closes the loop the paper's production system
actually runs in: a cluster that never stands still.

* :mod:`repro.sim.trace` — seeded synthetic churn (diurnal / flash-crowd /
  abnormal workload families plus VM resizes, PM maintenance drains, PM
  failures and newer-generation PM re-adds) and a JSONL record/replay format.
* :mod:`repro.sim.engine` — :class:`LivingCluster` replays the event stream
  onto a live :class:`~repro.cluster.state.ClusterState` through its mutation
  methods, so the SoA view (and thus StepCache exactness) stays exact under
  external churn.
* :mod:`repro.sim.driver` — :class:`OnlineRescheduler` interleaves churn with
  periodic replanning through the serving stack (in-process service or a
  remote fleet via ``PlanningClient``), invalidating migrations the churn
  broke.
* :mod:`repro.sim.metrics` — steady-state and invalidation summaries.

Surfaces: ``repro simulate`` (CLI) and the ``churn`` row of
``benchmarks/paper.py`` (the trained agent against HA, α-VBPP and Random over
one multi-day trace); determinism, record/replay and StepCache parity are
tier-1 tests in ``tests/sim/test_online.py``.
"""

from .engine import STAT_KEYS, LivingCluster
from .driver import (
    OnlineRescheduler,
    RoundRecord,
    SimulationConfig,
    SimulationReport,
)
from .metrics import invalidation_rate, steady_state_mean
from .trace import (
    ChurnSpec,
    SyntheticTrace,
    TRACE_FORMAT,
    TRACE_VERSION,
    load_trace,
    save_trace,
)

__all__ = [
    "ChurnSpec",
    "LivingCluster",
    "OnlineRescheduler",
    "RoundRecord",
    "STAT_KEYS",
    "SimulationConfig",
    "SimulationReport",
    "SyntheticTrace",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "invalidation_rate",
    "load_trace",
    "save_trace",
    "steady_state_mean",
]
