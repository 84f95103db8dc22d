"""Exact MIP rescheduler (Eq. 1–7 of the paper), solved with HiGHS.

The paper solves the mixed-integer program with Gurobi; this reproduction
builds the identical formulation and hands it to ``scipy.optimize.milp``
(HiGHS branch-and-cut), with a configurable wall-clock limit so benchmarks can
reproduce both the "near-optimal but slow" and the "time-limited" behaviours
(Figs. 4, 5, 9).

Decision variables
------------------
* ``x[k, i, j]`` — binary, single-NUMA VM *k* placed on NUMA *j* of PM *i*.
* ``z[k, i]``    — binary, double-NUMA VM *k* placed across both NUMAs of PM *i*.
* ``y[i, j]``    — integer ≥ 0, number of additional X-core VMs NUMA (i, j)
  could host after the reassignment.

Because every VM is placed exactly once, minimizing total fragments
(Eq. 1) is equivalent to maximizing ``Σ y`` — the number of X-core slots the
cluster can still offer — which is the objective used here.

The solver also supports restricting the movable set (``candidate_vms``),
which POP and NeuPlan use to shrink their subproblems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..cluster import BOTH_NUMAS, ClusterState, Migration, MigrationPlan
from .base import Rescheduler


@dataclass
class MIPSolution:
    """Raw solver output kept for diagnostics."""

    status: str
    objective_slots: float
    success: bool
    mip_gap: Optional[float] = None


class MIPRescheduler(Rescheduler):
    """Solve the VM rescheduling MILP exactly (or until the time limit)."""

    name = "MIP"

    def __init__(
        self,
        time_limit_s: Optional[float] = None,
        candidate_vms: Optional[Sequence[int]] = None,
        mip_rel_gap: float = 0.0,
    ) -> None:
        self.time_limit_s = time_limit_s
        self.candidate_vms = list(candidate_vms) if candidate_vms is not None else None
        self.mip_rel_gap = mip_rel_gap
        self._info: Dict = {}

    # ------------------------------------------------------------------ #
    def _compute(self, state: ClusterState, migration_limit: int) -> MigrationPlan:
        movable = self._movable_vms(state)
        if not movable:
            self._info = {"status": "no_movable_vms"}
            return MigrationPlan()
        assignment, numa_targets, solution = self._solve(state, movable, migration_limit)
        self._info = {
            "status": solution.status,
            "objective_slots": solution.objective_slots,
            "num_variables": self._num_variables,
            "num_constraints": self._num_constraints,
        }
        if assignment is None:
            return MigrationPlan()
        return order_migrations(state, assignment, numa_targets)

    def _last_info(self) -> Dict:
        return dict(self._info)

    def _movable_vms(self, state: ClusterState) -> List[int]:
        vm_ids = self.candidate_vms if self.candidate_vms is not None else state.sorted_vm_ids()
        soa = state.arrays()
        return [
            vm_id for vm_id in vm_ids if vm_id in soa.vm_row and soa.vm_pm[soa.vm_row[vm_id]] >= 0
        ]

    # ------------------------------------------------------------------ #
    def _solve(
        self, state: ClusterState, movable: List[int], migration_limit: int
    ) -> Tuple[Optional[Dict[int, int]], Dict[int, int], MIPSolution]:
        """Solve the MILP: the final VM→PM assignment, the NUMA each
        single-NUMA VM lands on (so the applied plan keeps the solver's NUMA
        choice), and the solver's status."""
        x_cores = state.fragment_cores
        soa = state.arrays()
        vm_rows = {vm_id: soa.vm_row[vm_id] for vm_id in movable}
        pm_ids = state.sorted_pm_ids()
        numa_keys = [(pm_id, numa_id) for pm_id in pm_ids for numa_id in (0, 1)]
        numa_index = {key: idx for idx, key in enumerate(numa_keys)}

        single = [vm_id for vm_id in movable if not soa.vm_double[vm_rows[vm_id]]]
        double = [vm_id for vm_id in movable if soa.vm_double[vm_rows[vm_id]]]

        # Effective capacity: current free resources plus what the movable VMs
        # currently occupy (their placement is being re-decided).  Flattened,
        # the (P, 2) free arrays follow ``numa_keys``.
        free_cpu = soa.numa_free_cpu.flatten()
        free_mem = soa.numa_free_mem.flatten()
        for row in vm_rows.values():
            numa = soa.vm_numa[row]
            for numa_id in (0, 1) if numa == BOTH_NUMAS else (numa,):
                idx = 2 * soa.vm_pm[row] + numa_id
                free_cpu[idx] += soa.vm_cpu_half[row]
                free_mem[idx] += soa.vm_mem_half[row]

        # Variable layout: [x (single), z (double), y (numa slots)]
        x_vars = [(vm_id, pm_id, numa_id) for vm_id in single for pm_id in pm_ids for numa_id in (0, 1)]
        z_vars = [(vm_id, pm_id) for vm_id in double for pm_id in pm_ids]
        num_x, num_z, num_y = len(x_vars), len(z_vars), len(numa_keys)
        num_vars = num_x + num_z + num_y
        self._num_variables = num_vars
        x_offset, z_offset, y_offset = 0, num_x, num_x + num_z
        x_index = {key: x_offset + i for i, key in enumerate(x_vars)}
        z_index = {key: z_offset + i for i, key in enumerate(z_vars)}

        # Objective: maximize sum(y) == minimize -sum(y).
        objective = np.zeros(num_vars)
        objective[y_offset:] = -1.0

        rows: List[Dict[int, float]] = []
        lower: List[float] = []
        upper: List[float] = []

        def add_row(coeffs: Dict[int, float], lo: float, hi: float) -> None:
            rows.append(coeffs)
            lower.append(lo)
            upper.append(hi)

        # CPU and memory capacity per NUMA (Eq. 2–3).
        for key in numa_keys:
            idx = numa_index[key]
            cpu_row: Dict[int, float] = {y_offset + idx: float(x_cores)}
            mem_row: Dict[int, float] = {}
            pm_id, numa_id = key
            for vm_id in single:
                var = x_index[(vm_id, pm_id, numa_id)]
                cpu_row[var] = float(soa.vm_cpu[vm_rows[vm_id]])
                mem_row[var] = float(soa.vm_mem[vm_rows[vm_id]])
            for vm_id in double:
                var = z_index[(vm_id, pm_id)]
                cpu_row[var] = float(soa.vm_cpu_half[vm_rows[vm_id]])
                mem_row[var] = float(soa.vm_mem_half[vm_rows[vm_id]])
            add_row(cpu_row, -np.inf, float(free_cpu[idx]))
            add_row(mem_row, -np.inf, float(free_mem[idx]))

        # Each VM deployed exactly once (Eq. 4/6).
        for vm_id in single:
            row = {x_index[(vm_id, pm_id, numa_id)]: 1.0 for pm_id in pm_ids for numa_id in (0, 1)}
            add_row(row, 1.0, 1.0)
        for vm_id in double:
            row = {z_index[(vm_id, pm_id)]: 1.0 for pm_id in pm_ids}
            add_row(row, 1.0, 1.0)

        # Migration number limit (Eq. 5): sum of "stayed home" indicators >= M - MNL.
        stay_row: Dict[int, float] = {}
        home = {vm_id: pm_ids[soa.vm_pm[row]] for vm_id, row in vm_rows.items()}
        for vm_id in single:
            stay_row[x_index[(vm_id, home[vm_id], int(soa.vm_numa[vm_rows[vm_id]]))]] = 1.0
        for vm_id in double:
            stay_row[z_index[(vm_id, home[vm_id])]] = 1.0
        add_row(stay_row, float(len(movable) - migration_limit), np.inf)

        # Anti-affinity: at most one VM of a group per PM (§5.4).
        groups: Dict[int, List[int]] = {}
        for vm_id, row in vm_rows.items():
            group = int(soa.vm_group[row])
            if group >= 0:
                groups.setdefault(group, []).append(vm_id)
        for group, members in groups.items():
            if len(members) < 2:
                continue
            for pm_id in pm_ids:
                row: Dict[int, float] = {}
                for vm_id in members:
                    if soa.vm_double[vm_rows[vm_id]]:
                        row[z_index[(vm_id, pm_id)]] = 1.0
                    else:
                        row[x_index[(vm_id, pm_id, 0)]] = 1.0
                        row[x_index[(vm_id, pm_id, 1)]] = 1.0
                add_row(row, -np.inf, 1.0)

        self._num_constraints = len(rows)
        matrix = sparse.lil_matrix((len(rows), num_vars))
        for row_idx, coeffs in enumerate(rows):
            for col, value in coeffs.items():
                matrix[row_idx, col] = value
        constraints = LinearConstraint(matrix.tocsr(), np.array(lower), np.array(upper))

        var_upper = np.ones(num_vars)
        var_upper[y_offset:] = np.floor(free_cpu / x_cores)
        bounds = Bounds(np.zeros(num_vars), var_upper)
        integrality = np.ones(num_vars)

        options: Dict[str, float] = {"mip_rel_gap": self.mip_rel_gap}
        if self.time_limit_s is not None:
            options["time_limit"] = float(self.time_limit_s)
        result = milp(
            c=objective,
            constraints=constraints,
            bounds=bounds,
            integrality=integrality,
            options=options,
        )
        solution = MIPSolution(
            status=result.message,
            objective_slots=float(-result.fun) if result.fun is not None else float("nan"),
            success=bool(result.success),
            mip_gap=getattr(result, "mip_gap", None),
        )
        if result.x is None:
            return None, {}, solution

        values = result.x
        assignment: Dict[int, int] = {}
        numa_targets: Dict[int, int] = {}
        for vm_id in single:
            assignment[vm_id], numa_targets[vm_id] = max(
                ((pm_id, numa_id) for pm_id in pm_ids for numa_id in (0, 1)),
                key=lambda key: values[x_index[(vm_id, *key)]],
            )
        for vm_id in double:
            best_pm = max(pm_ids, key=lambda pm_id: values[z_index[(vm_id, pm_id)]])
            assignment[vm_id] = best_pm
        return assignment, numa_targets, solution


def order_migrations(
    state: ClusterState,
    assignment: Dict[int, int],
    numa_targets: Optional[Dict[int, Optional[int]]] = None,
) -> MigrationPlan:
    """Turn a final VM→PM assignment into a sequentially feasible migration order.

    Migrations are emitted greedily: at each round, any move whose destination
    currently has room is applied to a working copy.  Remaining moves (cyclic
    swaps with no free buffer) are appended at the end; plan application skips
    them if they stay infeasible, which mirrors production behaviour.

    ``numa_targets`` optionally pins a VM's destination NUMA (planners like
    α-VBPP choose NUMAs deliberately): the pinned target is kept whenever it
    is feasible at that point of the sequence and downgraded to best-fit
    (``dest_numa_id=None``) otherwise.
    """
    numa_targets = numa_targets or {}
    working = state.copy()
    soa = state.arrays()
    pending = [
        (vm_id, dest_pm)
        for vm_id, dest_pm in sorted(assignment.items())
        if soa.vm_pm[soa.vm_row[vm_id]] != soa.pm_row[dest_pm]
    ]
    plan = MigrationPlan()
    progress = True
    while pending and progress:
        progress = False
        remaining = []
        for vm_id, dest_pm in pending:
            if working.can_host(vm_id, dest_pm, honor_affinity=False):
                numa = numa_targets.get(vm_id)
                if numa is not None and numa not in working.feasible_numas(
                    vm_id, dest_pm, honor_affinity=False
                ):
                    numa = None  # pinned NUMA stale at this point: best-fit
                working.migrate_vm(vm_id, dest_pm, dest_numa_id=numa, honor_affinity=False)
                plan.append(Migration(vm_id=vm_id, dest_pm_id=dest_pm, dest_numa_id=numa))
                progress = True
            else:
                remaining.append((vm_id, dest_pm))
        pending = remaining
    for vm_id, dest_pm in pending:
        plan.append(
            Migration(vm_id=vm_id, dest_pm_id=dest_pm, dest_numa_id=numa_targets.get(vm_id))
        )
    return plan
