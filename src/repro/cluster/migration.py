"""Migration plans and the live-migration cost model.

A rescheduling algorithm produces a :class:`MigrationPlan`: an ordered list of
single-VM migrations (the paper's episode of up to MNL steps).  The plan can be
applied to a :class:`~repro.cluster.state.ClusterState`, partially applied when
some steps have become stale (footnote 7), and costed with a simple live
migration model (pre-copy of memory plus dirty-page rounds, §1 "VM
Rescheduling").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .state import ClusterState


@dataclass(frozen=True)
class Migration:
    """A single rescheduling step: move ``vm_id`` to ``dest_pm_id``."""

    vm_id: int
    dest_pm_id: int
    dest_numa_id: Optional[int] = None

    def as_tuple(self) -> Tuple[int, int]:
        return (self.vm_id, self.dest_pm_id)


@dataclass
class MigrationPlan:
    """An ordered sequence of migrations produced by a rescheduler."""

    migrations: List[Migration] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.migrations)

    def __iter__(self):
        return iter(self.migrations)

    def append(self, migration: Migration) -> None:
        self.migrations.append(migration)

    def vm_ids(self) -> List[int]:
        return [m.vm_id for m in self.migrations]

    def truncated(self, limit: int) -> "MigrationPlan":
        """Return a copy containing only the first ``limit`` migrations."""
        return MigrationPlan(list(self.migrations[:limit]))

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[int, int]]) -> "MigrationPlan":
        return cls([Migration(vm_id=int(v), dest_pm_id=int(p)) for v, p in pairs])


@dataclass
class PlanApplicationResult:
    """Outcome of applying a plan to a cluster state."""

    applied: List[Migration]
    skipped: List[Migration]
    initial_fragment_rate: float
    final_fragment_rate: float

    @property
    def num_applied(self) -> int:
        return len(self.applied)

    @property
    def fr_reduction(self) -> float:
        return self.initial_fragment_rate - self.final_fragment_rate


def apply_plan(
    state: ClusterState,
    plan: MigrationPlan,
    honor_affinity: bool = True,
    skip_infeasible: bool = True,
    in_place: bool = False,
) -> Tuple[ClusterState, PlanApplicationResult]:
    """Apply ``plan`` to ``state`` (on a copy unless ``in_place``).

    Infeasible steps are skipped when ``skip_infeasible`` is set, which mirrors
    production behaviour: a stale action simply leaves the VM on its source PM
    (footnote 7 of the paper).  Otherwise the first infeasible step raises.
    """
    working = state if in_place else state.copy()
    initial_fr = working.fragment_rate()
    applied: List[Migration] = []
    skipped: List[Migration] = []
    soa = working.arrays()
    for migration in plan:
        row = soa.vm_row.get(migration.vm_id)
        column = soa.pm_row.get(migration.dest_pm_id)
        feasible = (
            row is not None
            and column is not None
            and soa.vm_pm[row] not in (-1, column)
            and working.can_host(migration.vm_id, migration.dest_pm_id, honor_affinity=honor_affinity)
        )
        if not feasible:
            if skip_infeasible:
                skipped.append(migration)
                continue
            raise ValueError(f"migration {migration} is infeasible")
        try:
            working.migrate_vm(
                migration.vm_id,
                migration.dest_pm_id,
                dest_numa_id=migration.dest_numa_id,
                honor_affinity=honor_affinity,
            )
        except ValueError:
            # The PM can host the VM but the step's *explicit* NUMA target
            # cannot (e.g. a planner chose it assuming another migration had
            # already vacated the node).  migrate_vm is atomic — the VM is
            # back on its source — so treat the step as stale like any other
            # infeasible migration instead of crashing the evaluation.
            if not skip_infeasible:
                raise
            skipped.append(migration)
            continue
        applied.append(migration)
    result = PlanApplicationResult(
        applied=applied,
        skipped=skipped,
        initial_fragment_rate=initial_fr,
        final_fragment_rate=working.fragment_rate(),
    )
    return working, result


#: Live-migration network bandwidth, in Gbit/s.
NETWORK_BANDWIDTH_GBPS = 25.0
#: Share of the copied memory a VM dirties again during one pre-copy round.
DIRTY_PAGE_RATIO = 0.15
#: Residual dirty memory, in GB, small enough for the final stop-and-copy.
STOP_THRESHOLD_GB = 0.25
#: Pre-copy rounds after which the final stop-and-copy runs regardless.
MAX_PRECOPY_ROUNDS = 10


def migration_seconds(memory_gb: float) -> float:
    """Transfer time of one live migration of a VM with ``memory_gb`` memory.

    Compute-storage separation means only memory moves (§1): pre-copy rounds
    shrink the residual dirty set by ``DIRTY_PAGE_RATIO`` each round until it
    falls below ``STOP_THRESHOLD_GB``, then the VM pauses for the final copy.
    """
    if memory_gb <= 0:
        raise ValueError("memory_gb must be positive")
    bandwidth_gb_per_s = NETWORK_BANDWIDTH_GBPS / 8.0
    remaining = float(memory_gb)
    total = 0.0
    for _ in range(MAX_PRECOPY_ROUNDS):
        total += remaining / bandwidth_gb_per_s
        remaining *= DIRTY_PAGE_RATIO
        if remaining <= STOP_THRESHOLD_GB:
            break
    total += remaining / bandwidth_gb_per_s
    return total


def plan_cost(state: ClusterState, plan: MigrationPlan, parallelism: int = 4) -> dict:
    """Aggregate cost of a plan assuming ``parallelism`` concurrent migrations."""
    if parallelism <= 0:
        raise ValueError("parallelism must be positive")
    durations = []
    total_memory = 0.0
    for migration in plan:
        vm = state.vms.get(migration.vm_id)
        if vm is None:
            continue
        durations.append(migration_seconds(vm.memory))
        total_memory += vm.memory
    durations.sort(reverse=True)
    # Greedy longest-processing-time makespan approximation.
    lanes = [0.0] * parallelism
    for duration in durations:
        lanes[lanes.index(min(lanes))] += duration
    return {
        "num_migrations": len(durations),
        "total_memory_gb": total_memory,
        "serial_seconds": float(sum(durations)),
        "makespan_seconds": float(max(lanes) if durations else 0.0),
    }
