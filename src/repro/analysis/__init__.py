"""Analysis utilities: metrics, dynamic-decay experiments, reporting and plan visualization."""

from .dynamics import DelayOutcome, achieved_fr_vs_delay, decay_series, find_elbow
from .metrics import potential_fr_ratio, relative_gap
from .reporting import format_series, format_table
from .visualize import (
    MigrationStepTrace,
    NumaBreakdown,
    numa_breakdown,
    render_numa_bar,
    render_step,
    render_trace,
    trace_plan,
)

__all__ = [
    "DelayOutcome",
    "MigrationStepTrace",
    "NumaBreakdown",
    "achieved_fr_vs_delay",
    "decay_series",
    "find_elbow",
    "format_series",
    "format_table",
    "numa_breakdown",
    "potential_fr_ratio",
    "relative_gap",
    "render_numa_bar",
    "render_step",
    "render_trace",
    "trace_plan",
]
