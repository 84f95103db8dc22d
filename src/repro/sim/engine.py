"""The living cluster: replay a persistent event stream onto one state.

:class:`LivingCluster` owns a :class:`~repro.cluster.state.ClusterState` and a
time-sorted event stream, and advances simulated time by applying every event
that has come due.  All mutations flow through the state's own methods
(``add_vm`` / ``remove_vm_from_cluster`` / ``migrate_vm`` / ``add_pm`` /
``remove_pm``), so the SoA view, its mutation journal and therefore the
dirty-set/StepCache machinery stay exact under external churn: placement-level
changes (drain migrations) land in the journal, structural changes (VM/PM
arrival and departure, resizes) invalidate the view for an exact rebuild.

Event semantics
---------------
``arrival``
    A new VM (type sampled small-skewed from the catalog unless the event
    pins one) is scheduled best-fit, mirroring the production VMS of §1.
    No room anywhere → ``failed_arrivals``.
``exit``
    A placed VM (engine-picked unless the event pins ``vm_id``) leaves.
``resize``
    A placed VM changes flavor (one catalog tier up/down, grow-biased) and is
    re-scheduled best-fit.  If the new size fits nowhere the resize fails and
    the VM stays as it was (``failed_resizes``).
``pm_drain``
    Maintenance: hosted VMs are migrated off best-fit (these are exactly the
    journal-tracked placement mutations), VMs that fit nowhere else are
    evicted, then the PM leaves.
``pm_fail``
    Hard failure: hosted VMs are lost with the PM.
``pm_add``
    A replacement PM joins, empty.  Every ``adds_per_generation``-th add
    bumps the hardware generation: newer PMs carry ``generation_growth``×
    more capacity per NUMA, so long horizons grow heterogeneous.

Targets that no longer exist (an exit for a VM that already left, a drain
for a dead PM) and structurally impossible events (draining the last PM) are
counted as ``skipped`` — a trace replayed onto a diverged state degrades
gracefully instead of crashing.

Determinism: all sampling comes from one ``default_rng(seed)`` consumed in
event order, so ``(initial state, event stream, seed)`` fully determines the
trajectory.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cluster import (
    BOTH_NUMAS,
    ClusterEvent,
    ClusterState,
    PhysicalMachine,
    Placement,
    VirtualMachine,
    VMTypeCatalog,
    best_fit_placement,
)
from ..cluster.vm_types import PMType, VMType

#: Stat counters every engine exposes (all start at zero).
STAT_KEYS = (
    "arrivals",
    "failed_arrivals",
    "exits",
    "resizes",
    "failed_resizes",
    "drains",
    "drain_migrations",
    "evictions",
    "failures",
    "lost_vms",
    "adds",
    "skipped",
)


def _even(value: float) -> int:
    """Round up to the nearest positive multiple of 4 (NUMA-splittable)."""
    return max(4, int(-(-value // 4)) * 4)


class LivingCluster:
    """A cluster state advancing through a time-sorted event stream."""

    def __init__(
        self,
        state: ClusterState,
        events: Sequence[ClusterEvent],
        seed: int = 0,
        catalog: Optional[VMTypeCatalog] = None,
        adds_per_generation: int = 4,
        generation_growth: float = 1.25,
    ) -> None:
        if adds_per_generation < 1:
            raise ValueError("adds_per_generation must be >= 1")
        if generation_growth < 1.0:
            raise ValueError("generation_growth must be >= 1")
        self.state = state
        self.events: List[ClusterEvent] = sorted(events, key=lambda e: (e.time_s, e.kind))
        self.catalog = catalog if catalog is not None else VMTypeCatalog.main()
        self.now_s = 0.0
        self.stats: Dict[str, int] = {key: 0 for key in STAT_KEYS}
        self._cursor = 0
        self._rng = np.random.default_rng(seed)
        self._next_vm_id = max(state.vms, default=0) + 1
        self._next_pm_id = max(state.pms) + 1
        self._adds = 0
        self._generation = 0
        self._adds_per_generation = adds_per_generation
        self._generation_growth = generation_growth
        # Generation-0 hardware: the most common PM flavor of the seed state.
        flavor_counts: Dict[PMType, int] = {}
        for pm in state.pms.values():
            flavor_counts[pm.pm_type] = flavor_counts.get(pm.pm_type, 0) + 1
        self._base_pm_type = max(
            flavor_counts, key=lambda t: (flavor_counts[t], t.cpu)
        )
        types = sorted(self.catalog, key=lambda t: (t.cpu, t.memory, t.name))
        self._types_by_size: List[VMType] = types
        weights = np.array([1.0 / t.cpu for t in types])
        self._type_probs = weights / weights.sum()

    # ------------------------------------------------------------------ #
    @property
    def pending_events(self) -> int:
        return len(self.events) - self._cursor

    def advance(self, until_s: float) -> Dict[str, int]:
        """Apply every event with ``time_s <= until_s``; returns delta stats."""
        if not math.isfinite(until_s):
            raise ValueError(f"cannot advance to a non-finite time: {until_s!r}")
        if until_s < self.now_s:
            raise ValueError(
                f"cannot advance backwards: now={self.now_s:.1f}s, asked {until_s:.1f}s"
            )
        before = dict(self.stats)
        while self._cursor < len(self.events) and self.events[self._cursor].time_s <= until_s:
            self._apply(self.events[self._cursor])
            self._cursor += 1
        self.now_s = until_s
        return {key: self.stats[key] - before[key] for key in STAT_KEYS}

    # ------------------------------------------------------------------ #
    # Event application
    # ------------------------------------------------------------------ #
    def _apply(self, event: ClusterEvent) -> None:
        handler = {
            "arrival": self._apply_arrival,
            "exit": self._apply_exit,
            "resize": self._apply_resize,
            "pm_drain": self._apply_pm_drain,
            "pm_fail": self._apply_pm_fail,
            "pm_add": self._apply_pm_add,
        }[event.kind]
        handler(event)

    def _apply_arrival(self, event: ClusterEvent) -> None:
        if event.vm_type_name is not None:
            if event.vm_type_name not in self.catalog:
                self.stats["skipped"] += 1
                return
            vm_type = self.catalog.get(event.vm_type_name)
        else:
            index = self._rng.choice(len(self._types_by_size), p=self._type_probs)
            vm_type = self._types_by_size[index]
        vm = VirtualMachine(vm_id=self._next_vm_id, vm_type=vm_type)
        placement = best_fit_placement(self.state, vm)
        if placement is None:
            self.stats["failed_arrivals"] += 1
            return
        self._next_vm_id += 1
        self.state.add_vm(vm, placement)
        self.stats["arrivals"] += 1

    def _pick_placed_vm(self, vm_id: Optional[int]) -> Optional[int]:
        if vm_id is not None:
            vm = self.state.vms.get(vm_id)
            return vm_id if vm is not None and vm.is_placed else None
        placed = self.state.placed_vm_ids()
        if not placed:
            return None
        return placed[int(self._rng.integers(len(placed)))]

    def _apply_exit(self, event: ClusterEvent) -> None:
        vm_id = self._pick_placed_vm(event.vm_id)
        if vm_id is None:
            self.stats["skipped"] += 1
            return
        self.state.remove_vm_from_cluster(vm_id)
        self.stats["exits"] += 1

    def _apply_resize(self, event: ClusterEvent) -> None:
        state = self.state
        vm_id = self._pick_placed_vm(event.vm_id)
        if vm_id is None:
            self.stats["skipped"] += 1
            return
        vm = state.vms[vm_id]
        if event.vm_type_name is not None:
            if event.vm_type_name not in self.catalog:
                self.stats["skipped"] += 1
                return
            new_type = self.catalog.get(event.vm_type_name)
        else:
            new_type = self._neighbor_type(vm.vm_type)
        if new_type == vm.vm_type:
            self.stats["skipped"] += 1
            return
        old_type = vm.vm_type
        old_placement = Placement(pm_id=vm.pm_id, numa_id=vm.numa_id)
        group = vm.anti_affinity_group
        state.remove_vm_from_cluster(vm_id)
        resized = VirtualMachine(vm_id=vm_id, vm_type=new_type, anti_affinity_group=group)
        placement = best_fit_placement(state, resized)
        if placement is None:
            # Nowhere fits the new size: the resize fails, the VM stays put.
            # Its old slot was just vacated, so restoring cannot fail; the
            # original placement may predate anti-affinity, so don't re-check.
            restored = VirtualMachine(vm_id=vm_id, vm_type=old_type, anti_affinity_group=group)
            state.add_vm(restored)
            state.place_vm(vm_id, old_placement, honor_affinity=False)
            self.stats["failed_resizes"] += 1
            return
        state.add_vm(resized, placement)
        self.stats["resizes"] += 1

    def _neighbor_type(self, current: VMType) -> VMType:
        """One catalog tier up (60%) or down (40%) from ``current``."""
        types = self._types_by_size
        try:
            index = types.index(current)
        except ValueError:
            # A flavor outside the catalog (recorded trace): nearest by CPU.
            index = int(np.argmin([abs(t.cpu - current.cpu) for t in types]))
        direction = 1 if self._rng.random() < 0.6 else -1
        return types[min(max(index + direction, 0), len(types) - 1)]

    # ------------------------------------------------------------------ #
    def _pick_pm(self, pm_id: Optional[int]) -> Optional[int]:
        state = self.state
        if pm_id is not None:
            return pm_id if pm_id in state.pms else None
        if len(state.pms) <= 1:
            return None
        pm_ids = state.sorted_pm_ids()
        return pm_ids[int(self._rng.integers(len(pm_ids)))]

    def _drain_destination(self, vm_id: int, exclude_pm: int) -> Optional[Placement]:
        """Best-fit destination for a VM leaving ``exclude_pm`` (arithmetic,
        no probe mutations): smallest post-placement fragment, then least
        free CPU, then lowest PM id."""
        state = self.state
        vm = state.vms[vm_id]
        best: Optional[Placement] = None
        best_key = None
        for pm_id in state.sorted_pm_ids():
            if pm_id == exclude_pm:
                continue
            numa_id = state.best_numa_for(vm_id, pm_id)
            if numa_id is None:
                continue
            pm = state.pms[pm_id]
            if numa_id == BOTH_NUMAS:
                fragment = sum(
                    (numa.free_cpu - vm.cpu_per_numa) % state.fragment_cores
                    for numa in pm.numas
                )
            else:
                fragment = (pm.numas[numa_id].free_cpu - vm.cpu) % state.fragment_cores
            key = (fragment, pm.free_cpu, pm_id)
            if best_key is None or key < best_key:
                best_key = key
                best = Placement(pm_id=pm_id, numa_id=numa_id)
        return best

    def _apply_pm_drain(self, event: ClusterEvent) -> None:
        state = self.state
        if len(state.pms) <= 1:
            self.stats["skipped"] += 1
            return
        pm_id = self._pick_pm(event.pm_id)
        if pm_id is None:
            self.stats["skipped"] += 1
            return
        for vm_id in sorted(state.pms[pm_id].vm_ids):
            destination = self._drain_destination(vm_id, exclude_pm=pm_id)
            if destination is None:
                state.remove_vm_from_cluster(vm_id)
                self.stats["evictions"] += 1
            else:
                state.migrate_vm(vm_id, destination.pm_id, destination.numa_id)
                self.stats["drain_migrations"] += 1
        state.remove_pm(pm_id)
        self.stats["drains"] += 1

    def _apply_pm_fail(self, event: ClusterEvent) -> None:
        state = self.state
        if len(state.pms) <= 1:
            self.stats["skipped"] += 1
            return
        pm_id = self._pick_pm(event.pm_id)
        if pm_id is None:
            self.stats["skipped"] += 1
            return
        lost = sorted(state.pms[pm_id].vm_ids)
        for vm_id in lost:
            state.remove_vm_from_cluster(vm_id)
        state.remove_pm(pm_id)
        self.stats["failures"] += 1
        self.stats["lost_vms"] += len(lost)

    def _apply_pm_add(self, event: ClusterEvent) -> None:
        if event.pm_cpu is not None and event.pm_memory is not None:
            pm_type = PMType(
                name=event.pm_type_name or f"pm-{event.pm_cpu}c-{event.pm_memory}g",
                cpu=_even(event.pm_cpu),
                memory=_even(event.pm_memory),
            )
        else:
            self._adds += 1
            if self._adds % self._adds_per_generation == 0:
                self._generation += 1
            growth = self._generation_growth ** self._generation
            base = self._base_pm_type
            cpu, memory = _even(base.cpu * growth), _even(base.memory * growth)
            pm_type = PMType(name=f"{base.name}-gen{self._generation}", cpu=cpu, memory=memory)
        pm_id = event.pm_id if event.pm_id is not None else self._next_pm_id
        if pm_id in self.state.pms:
            self.stats["skipped"] += 1
            return
        self._next_pm_id = max(self._next_pm_id, pm_id) + 1
        self.state.add_pm(PhysicalMachine(pm_id=pm_id, pm_type=pm_type))
        self.stats["adds"] += 1
