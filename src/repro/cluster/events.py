"""Cluster events and best-fit placement.

Figure 1 of the paper shows VMs arriving and exiting all day; Figure 5 shows
why that matters: while a rescheduling algorithm computes, the cluster keeps
changing, so slow solvers see many of their actions invalidated.

This module holds the event record and the best-fit placement arrivals use.
The arrival/exit process is sampled by :mod:`repro.sim.trace` (its rate
profiles live in :mod:`repro.datasets.workloads`), and events are replayed
onto a cluster state by :class:`repro.sim.engine.LivingCluster`, both for the
continuous simulator and while a plan is "being computed" in the Fig. 5
experiment (:mod:`repro.analysis.dynamics`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .machine import BOTH_NUMAS, VirtualMachine
from .soa import has_room
from .state import ClusterState, Placement, int_field

#: Every event kind the living-cluster simulator understands: VM arrivals and
#: exits (the Fig. 1 / Fig. 5 churn), VM resizes, PM maintenance drains, PM
#: failures, and PM re-adds (possibly with a newer hardware generation).
EVENT_KINDS = ("arrival", "exit", "resize", "pm_drain", "pm_fail", "pm_add")


@dataclass(frozen=True)
class ClusterEvent:
    """One cluster mutation at ``time_s`` seconds from the stream origin.

    * ``arrival`` — a VM of flavor ``vm_type_name`` (or ``None``: the engine
      samples one) is placed best-fit.
    * ``exit`` — ``vm_id`` (or ``None``: engine-picked) leaves.
    * ``resize`` — ``vm_id`` (or ``None``: the engine picks one) changes its
      flavor to ``vm_type_name`` (or ``None``: the engine samples a
      neighboring flavor).
    * ``pm_drain`` / ``pm_fail`` — ``pm_id`` (or ``None``: engine-picked) is
      drained (VMs migrated off best-fit) or fails (VMs are lost), then
      leaves the cluster.
    * ``pm_add`` — a new PM joins; ``pm_type_name`` + ``pm_cpu`` +
      ``pm_memory`` describe its (possibly newer-generation) capacity, all
      optional (the engine defaults to its hardware-generation schedule).

    Events round-trip through :meth:`to_dict` / :meth:`from_dict`, the basis
    of the JSONL trace format (:mod:`repro.sim.trace`).
    """

    time_s: float
    kind: str  # one of EVENT_KINDS
    vm_type_name: Optional[str] = None
    vm_id: Optional[int] = None
    pm_id: Optional[int] = None
    pm_type_name: Optional[str] = None
    pm_cpu: Optional[int] = None
    pm_memory: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; known: {EVENT_KINDS}")
        if not isinstance(self.time_s, (int, float)) or isinstance(self.time_s, bool):
            raise ValueError(f"time_s must be a number, got {self.time_s!r}")
        # A NaN time never comes due (``nan <= t`` is false), so it would
        # block every later event of a time-sorted stream.
        if not math.isfinite(self.time_s):
            raise ValueError(f"time_s must be finite, got {self.time_s!r}")
        if self.time_s < 0:
            raise ValueError(f"time_s must not be negative, got {self.time_s!r}")

    def to_dict(self) -> Dict:
        """Compact dict form: ``time_s``/``kind`` plus only the set fields."""
        payload: Dict = {"time_s": float(self.time_s), "kind": self.kind}
        for field_name in ("vm_type_name", "vm_id", "pm_id", "pm_type_name",
                           "pm_cpu", "pm_memory"):
            value = getattr(self, field_name)
            if value is not None:
                payload[field_name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "ClusterEvent":
        if not isinstance(payload, dict):
            raise ValueError(f"event payload must be a dict, got {type(payload).__name__}")
        unknown = set(payload) - {
            "time_s", "kind", "vm_type_name", "vm_id", "pm_id", "pm_type_name",
            "pm_cpu", "pm_memory",
        }
        if unknown:
            raise ValueError(f"unknown event fields: {sorted(unknown)}")
        if "time_s" not in payload or "kind" not in payload:
            raise ValueError("event payload requires 'time_s' and 'kind'")
        time_s = payload["time_s"]
        if not isinstance(time_s, (int, float)) or isinstance(time_s, bool):
            raise ValueError(f"time_s must be a number, got {time_s!r}")
        ints = {
            key: (None if payload.get(key) is None else int_field(payload[key], key))
            for key in ("vm_id", "pm_id", "pm_cpu", "pm_memory")
        }
        return cls(
            time_s=float(time_s),
            kind=str(payload["kind"]),
            vm_type_name=payload.get("vm_type_name"),
            pm_type_name=payload.get("pm_type_name"),
            **ints,
        )


def landing_slots(state: ClusterState, vm: VirtualMachine) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Where a VM that is not (yet) in ``state`` could land: ``(fits, numas)``.

    ``fits`` is a ``(P, K)`` mask over sorted PMs × the NUMA targets
    ``numas`` — NUMA 0 and 1 for a single-NUMA VM, ``BOTH_NUMAS`` for a
    double-NUMA one — True where the free capacity holds the VM and no VM of
    its anti-affinity group sits on the PM.  Flattened, it lists the targets
    PM by PM.
    """
    soa = state.arrays()
    room = has_room(soa.numa_free_cpu, soa.numa_free_mem, vm.cpu_per_numa, vm.memory_per_numa)
    room &= ~soa.group_hosts(soa.group_code.get(vm.anti_affinity_group, -1))[:, None]
    if vm.numa_count == 2:
        return room.all(axis=1, keepdims=True), (BOTH_NUMAS,)
    return room, (0, 1)


def best_fit_placement(state: ClusterState, vm: VirtualMachine) -> Optional[Placement]:
    """Best-fit VMS: choose the feasible placement with the largest FR reduction.

    This mirrors the production VM scheduler described in §1 ("sorts all PMs
    that meet the requirements ... according to the amount of FR reduction ...
    and chooses the PM with the largest reduction").  Targets are ranked by
    the change of their PM's X-core fragment, then by the PM's free CPU, then
    in :func:`landing_slots` order.  Returns ``None`` when no PM can host the
    VM.
    """
    fits, numas = landing_slots(state, vm)
    candidates = np.flatnonzero(fits)
    if candidates.size == 0:
        return None
    free = state.arrays().numa_free_cpu
    before = free % state.fragment_cores
    landed = (free - vm.cpu_per_numa) % state.fragment_cores
    if vm.numa_count == 2:
        after = (landed[:, 0] + landed[:, 1])[:, None]
    else:
        after = np.stack((landed[:, 0] + before[:, 1], before[:, 0] + landed[:, 1]), axis=1)
    change = (after - (before[:, 0] + before[:, 1])[:, None]).ravel()[candidates]
    pm_free = (free[:, 0] + free[:, 1]).repeat(len(numas))[candidates]
    best = int(candidates[np.lexsort((pm_free, change))[0]])
    return Placement(
        pm_id=state.sorted_pm_ids()[best // len(numas)], numa_id=numas[best % len(numas)]
    )
