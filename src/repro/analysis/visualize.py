"""Migration-trace visualization (the Fig. 21 case-study tool).

The paper builds a tool that shows, step by step, which VM each migration
moves and how the per-NUMA allocation of every involved PM changes.  This
module provides a terminal-friendly equivalent: per-step snapshots of the
source and destination PMs broken down by VM type, plus a textual bar
rendering of NUMA occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..cluster import ClusterState, MigrationPlan


@dataclass
class NumaBreakdown:
    """Allocated cores per VM type on one NUMA, plus free cores."""

    pm_id: int
    numa_id: int
    per_type_cores: Dict[str, float]
    free_cores: float
    capacity: float


@dataclass
class MigrationStepTrace:
    """Before/after breakdowns of the PMs touched by one migration step."""

    step: int
    vm_id: int
    vm_type: str
    source_pm_id: int
    dest_pm_id: int
    before: List[NumaBreakdown]
    after: List[NumaBreakdown]
    reward: float
    fragment_rate_after: float


def numa_breakdown(state: ClusterState, pm_id: int) -> List[NumaBreakdown]:
    """Per-NUMA allocation of a PM grouped by VM type."""
    pm = state.pms[pm_id]
    breakdowns = []
    for numa in pm.numas:
        per_type: Dict[str, float] = {}
        for vm_id in sorted(numa.vm_ids):
            vm = state.vms[vm_id]
            share = vm.cpu_per_numa if vm.numa_count == 2 else vm.cpu
            per_type[vm.vm_type.name] = per_type.get(vm.vm_type.name, 0.0) + share
        breakdowns.append(
            NumaBreakdown(
                pm_id=pm_id,
                numa_id=numa.numa_id,
                per_type_cores=per_type,
                free_cores=numa.free_cpu,
                capacity=numa.cpu_capacity,
            )
        )
    return breakdowns


def trace_plan(state: ClusterState, plan: MigrationPlan) -> List[MigrationStepTrace]:
    """Apply a plan step by step, recording the involved PMs before and after."""
    working = state.copy()
    traces: List[MigrationStepTrace] = []
    for step, migration in enumerate(plan, start=1):
        vm = working.vms.get(migration.vm_id)
        if vm is None or not vm.is_placed:
            continue
        source_pm = vm.pm_id
        if not working.can_host(migration.vm_id, migration.dest_pm_id, honor_affinity=False):
            continue
        before_src = working.pm_fragment(source_pm)
        before_dst = working.pm_fragment(migration.dest_pm_id)
        before = numa_breakdown(working, source_pm) + numa_breakdown(working, migration.dest_pm_id)
        working.migrate_vm(migration.vm_id, migration.dest_pm_id, honor_affinity=False)
        after = numa_breakdown(working, source_pm) + numa_breakdown(working, migration.dest_pm_id)
        after_src = working.pm_fragment(source_pm)
        after_dst = working.pm_fragment(migration.dest_pm_id)
        reward = (before_src - after_src + before_dst - after_dst) / 64.0
        traces.append(
            MigrationStepTrace(
                step=step,
                vm_id=migration.vm_id,
                vm_type=vm.vm_type.name,
                source_pm_id=source_pm,
                dest_pm_id=migration.dest_pm_id,
                before=before,
                after=after,
                reward=reward,
                fragment_rate_after=working.fragment_rate(),
            )
        )
    return traces


def render_numa_bar(breakdown: NumaBreakdown, width: int = 32) -> str:
    """Render one NUMA as a proportional text bar, one letter per VM type."""
    if width <= 0:
        raise ValueError("width must be positive")
    chars: List[str] = []
    for type_name, cores in sorted(breakdown.per_type_cores.items()):
        cells = max(int(round(width * cores / breakdown.capacity)), 1)
        chars.extend(type_name[0].upper() * cells)
    free_cells = max(width - len(chars), 0)
    chars.extend("." * free_cells)
    bar = "".join(chars[:width])
    return f"PM{breakdown.pm_id}/N{breakdown.numa_id} [{bar}] free={breakdown.free_cores:.0f}"


def render_step(trace: MigrationStepTrace, width: int = 32) -> str:
    """Human-readable rendering of one migration step (Fig. 21 style)."""
    lines = [
        f"step {trace.step}: move VM {trace.vm_id} ({trace.vm_type}) "
        f"PM{trace.source_pm_id} -> PM{trace.dest_pm_id} "
        f"(reward {trace.reward:+.3f}, FR {trace.fragment_rate_after:.4f})"
    ]
    lines.append("  before:")
    lines.extend(f"    {render_numa_bar(b, width)}" for b in trace.before)
    lines.append("  after:")
    lines.extend(f"    {render_numa_bar(b, width)}" for b in trace.after)
    return "\n".join(lines)


def render_trace(traces: Sequence[MigrationStepTrace], width: int = 32, max_steps: Optional[int] = None) -> str:
    """Render a whole migration trace (optionally truncated)."""
    selected = list(traces if max_steps is None else traces[:max_steps])
    return "\n\n".join(render_step(trace, width) for trace in selected)
