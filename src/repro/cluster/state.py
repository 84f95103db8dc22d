"""Cluster state: the authoritative VM→PM/NUMA placement bookkeeping.

A :class:`ClusterState` owns all :class:`~repro.cluster.machine.PhysicalMachine`
and :class:`~repro.cluster.machine.VirtualMachine` objects of one cluster and
provides the operations every algorithm in this repository relies on:

* feasibility checks for placing a VM on a PM (capacity + NUMA + anti-affinity),
* placement / removal / migration with exact resource accounting,
* fragment-rate metrics (delegated to :mod:`repro.cluster.fragmentation`),
* deep copies for search / simulation, and
* dict round-tripping used by the dataset format.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from . import fragmentation
from .machine import BOTH_NUMAS, PhysicalMachine, VirtualMachine
from .soa import ClusterArrays
from .vm_types import DEFAULT_PM_TYPE, PMType, VMType


def int_field(value, name: str) -> int:
    """``value`` as an int: an int, an integral float or an integer string
    (one optional sign and ASCII digits, surrounding whitespace allowed).

    Decodes the integer fields of payloads from outside the program.  A bool,
    a fractional or non-finite number or any other type raises ``ValueError``
    naming ``name`` — plain ``int()`` would read ``true`` as 1 and 3.9 as 3.
    """
    if type(value) is int:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value.strip()):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _group_field(value) -> Optional[Union[int, str]]:
    """A decoded ``anti_affinity_group``: None, an int or a str.  Groups are
    hashed into the SoA view's dense group index, so anything else (a list, a
    bool, a float) raises ``ValueError`` here rather than a ``TypeError``
    later."""
    if value is None or type(value) is int or isinstance(value, str):
        return value
    if isinstance(value, np.integer):
        return int(value)
    raise ValueError(f"anti_affinity_group must be None, an int or a str, got {value!r}")


@dataclass(frozen=True)
class Placement:
    """A (pm_id, numa_id) placement target; ``numa_id`` is BOTH_NUMAS for 2-NUMA VMs."""

    pm_id: int
    numa_id: int


class ClusterState:
    """Mutable state of one data-center cluster."""

    def __init__(
        self,
        pms: Sequence[PhysicalMachine],
        vms: Sequence[VirtualMachine],
        fragment_cores: int = fragmentation.DEFAULT_FRAGMENT_CORES,
    ) -> None:
        if not pms:
            raise ValueError("cluster requires at least one PM")
        self.fragment_cores = fragment_cores
        self.pms: Dict[int, PhysicalMachine] = {pm.pm_id: pm for pm in pms}
        if len(self.pms) != len(pms):
            raise ValueError("duplicate PM ids")
        self.vms: Dict[int, VirtualMachine] = {vm.vm_id: vm for vm in vms}
        if len(self.vms) != len(vms):
            raise ValueError("duplicate VM ids")
        # Copy-on-write bookkeeping: ids whose machine objects this state owns
        # exclusively.  A fresh state owns everything; copy() shares every
        # object between both states and empties both sets, and mutators
        # re-own (snapshot) a machine the first time they touch it.
        self._owned_pms: Set[int] = set(self.pms)
        self._owned_vms: Set[int] = set(self.vms)
        self._soa: Optional[ClusterArrays] = None
        self._sorted_pm_ids: Optional[List[int]] = None
        self._sorted_vm_ids: Optional[List[int]] = None
        # Apply initial placements recorded on the VM objects.
        for vm in list(self.vms.values()):
            if vm.pm_id is not None:
                pm_id = vm.pm_id
                numa_id = vm.numa_id if vm.numa_id is not None else (
                    BOTH_NUMAS if vm.numa_count == 2 else 0
                )
                vm.pm_id = None
                vm.numa_id = None
                # Pre-existing co-locations are allowed: anti-affinity only
                # constrains *new* rescheduling decisions (§5.4).
                self.place_vm(vm.vm_id, Placement(pm_id=pm_id, numa_id=numa_id), honor_affinity=False)

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def num_pms(self) -> int:
        return len(self.pms)

    @property
    def num_vms(self) -> int:
        return len(self.vms)

    def sorted_pm_ids(self) -> List[int]:
        """Sorted PM ids, cached (the ordering every mask/featurizer uses)."""
        cache = self._sorted_pm_ids
        if cache is None or len(cache) != len(self.pms):
            cache = sorted(self.pms)
            self._sorted_pm_ids = cache
        return cache

    def sorted_vm_ids(self) -> List[int]:
        """Sorted VM ids, cached; invalidated when VMs enter or leave."""
        cache = self._sorted_vm_ids
        if cache is None or len(cache) != len(self.vms):
            cache = sorted(self.vms)
            self._sorted_vm_ids = cache
        return cache

    def arrays(self) -> ClusterArrays:
        """The structure-of-arrays view, built lazily and kept in sync.

        Mutations through ``place_vm`` / ``remove_vm`` / ``migrate_vm`` update
        the view incrementally; structural changes rebuild it on next access.
        """
        soa = self._soa
        if soa is None or not soa.matches(self):
            soa = ClusterArrays.build(self)
            self._soa = soa
        return soa

    def invalidate_arrays(self) -> None:
        """Drop the SoA view (call after out-of-band mutations)."""
        self._soa = None
        self._sorted_vm_ids = None
        self._sorted_pm_ids = None

    # ------------------------------------------------------------------ #
    # Copy-on-write ownership
    # ------------------------------------------------------------------ #
    def _own_vm(self, vm_id: int) -> VirtualMachine:
        """Writable VM object: snapshot it first if shared with a copy."""
        vm = self.vms[vm_id]
        if vm_id not in self._owned_vms:
            vm = vm.copy()
            self.vms[vm_id] = vm
            self._owned_vms.add(vm_id)
        return vm

    def _own_pm(self, pm_id: int) -> PhysicalMachine:
        """Writable PM object: snapshot it first if shared with a copy."""
        pm = self.pms[pm_id]
        if pm_id not in self._owned_pms:
            pm = pm.copy()
            self.pms[pm_id] = pm
            self._owned_pms.add(pm_id)
        return pm

    @contextmanager
    def probe_vm(self, vm: VirtualMachine):
        """Temporarily add ``vm`` for feasibility probing (context manager).

        Placement helpers probe candidate slots by inserting a not-yet-member
        VM, trying placements, and removing it again.  This owns the COW
        bookkeeping in one place: the probe is marked owned (it is the
        caller's object, never shared with a copy) and both the dict entry
        and the ownership mark are dropped on exit.  A VM that is already a
        member is left untouched.
        """
        was_member = vm.vm_id in self.vms
        if not was_member:
            self.vms[vm.vm_id] = vm
            self._owned_vms.add(vm.vm_id)
        try:
            yield vm
        finally:
            if not was_member:
                del self.vms[vm.vm_id]
                self._owned_vms.discard(vm.vm_id)

    def set_anti_affinity_group(self, vm_id: int, group: Optional[int]) -> None:
        """Assign a VM's anti-affinity group through the copy-on-write layer.

        Machine objects may be shared with copies of this state — mutate them
        only through the state's own methods, never by writing fields on
        objects pulled out of ``state.vms`` / ``state.pms`` directly.  The SoA
        view caches the groups, so it is dropped and rebuilt on next access.
        """
        self._own_vm(vm_id).anti_affinity_group = group
        self._soa = None

    def pm_list(self) -> List[PhysicalMachine]:
        return [self.pms[pm_id] for pm_id in self.sorted_pm_ids()]

    def vm_list(self) -> List[VirtualMachine]:
        return [self.vms[vm_id] for vm_id in self.sorted_vm_ids()]

    def placed_vm_ids(self) -> List[int]:
        return [vm_id for vm_id in self.sorted_vm_ids() if self.vms[vm_id].is_placed]

    # ------------------------------------------------------------------ #
    # Anti-affinity
    # ------------------------------------------------------------------ #
    def conflicting_pm_ids(self, vm_id: int) -> Set[int]:
        """PMs hosting a VM in the same anti-affinity group as ``vm_id``."""
        vm = self.vms[vm_id]
        if vm.anti_affinity_group is None:
            return set()
        conflicts: Set[int] = set()
        for other in self.vms.values():
            if other.vm_id == vm_id or not other.is_placed:
                continue
            if other.anti_affinity_group == vm.anti_affinity_group:
                conflicts.add(other.pm_id)
        return conflicts

    def affinity_ratio(self) -> float:
        """Average fraction of other VMs a VM conflicts with (Table 2 metric)."""
        total_vms = len(self.vms)
        if total_vms <= 1:
            return 0.0
        group_sizes: Dict[int, int] = {}
        for vm in self.vms.values():
            if vm.anti_affinity_group is not None:
                group_sizes[vm.anti_affinity_group] = group_sizes.get(vm.anti_affinity_group, 0) + 1
        conflicts = sum(size * (size - 1) for size in group_sizes.values())
        return conflicts / (total_vms * (total_vms - 1))

    # ------------------------------------------------------------------ #
    # Feasibility
    # ------------------------------------------------------------------ #
    def feasible_numas(self, vm_id: int, pm_id: int, honor_affinity: bool = True) -> List[int]:
        """NUMA targets on ``pm_id`` that can host ``vm_id`` (empty if none).

        For a double-NUMA VM the only possible target is ``BOTH_NUMAS``.  The
        VM's current resources are *not* considered released: rescheduling
        always moves a VM to a *different* PM, and the caller excludes the
        source PM.
        """
        vm = self.vms[vm_id]
        pm = self.pms[pm_id]
        if honor_affinity and pm_id in self.conflicting_pm_ids(vm_id):
            return []
        if vm.numa_count == 2:
            fits = all(
                numa.can_host(vm.cpu_per_numa, vm.memory_per_numa) for numa in pm.numas
            )
            return [BOTH_NUMAS] if fits else []
        return [
            numa.numa_id
            for numa in pm.numas
            if numa.can_host(vm.cpu, vm.memory)
        ]

    def can_host(self, vm_id: int, pm_id: int, honor_affinity: bool = True) -> bool:
        """Whether ``pm_id`` can host ``vm_id`` on at least one NUMA target."""
        return bool(self.feasible_numas(vm_id, pm_id, honor_affinity=honor_affinity))

    def feasible_destination_pms(self, vm_id: int) -> List[int]:
        """All PMs that could receive ``vm_id`` right now: never its source
        PM, and anti-affinity always holds."""
        vm = self.vms[vm_id]
        return [
            pm_id
            for pm_id in self.sorted_pm_ids()
            if not (vm.is_placed and pm_id == vm.pm_id) and self.can_host(vm_id, pm_id)
        ]

    def best_numa_for(self, vm_id: int, pm_id: int, honor_affinity: bool = True) -> Optional[int]:
        """Pick the NUMA on ``pm_id`` minimizing the resulting fragment (best fit).

        Returns ``None`` when the PM cannot host the VM at all.  The choice is
        the move-scoring rule's (:meth:`ClusterArrays.placement_scores`): a
        single-NUMA VM goes to the feasible NUMA whose post-placement X-core
        fragment is smallest, then to the one with less free CPU, then NUMA 0.
        """
        if honor_affinity and pm_id in self.conflicting_pm_ids(vm_id):
            return None
        soa = self.arrays()
        row, column = soa.vm_row[vm_id], soa.pm_row[pm_id]
        _, numa, fits = soa.placement_scores(
            slice(row, row + 1), slice(column, column + 1), self.fragment_cores
        )
        return int(numa[0, 0]) if fits[0, 0] else None

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def place_vm(self, vm_id: int, placement: Placement, honor_affinity: bool = True) -> None:
        """Place an unplaced VM on the given PM/NUMA target."""
        vm = self._own_vm(vm_id)
        if vm.is_placed:
            raise ValueError(f"VM {vm_id} is already placed on PM {vm.pm_id}")
        pm = self._own_pm(placement.pm_id)
        if honor_affinity and placement.pm_id in self.conflicting_pm_ids(vm_id):
            raise ValueError(f"placing VM {vm_id} on PM {placement.pm_id} violates anti-affinity")
        if vm.numa_count == 2:
            if placement.numa_id != BOTH_NUMAS:
                raise ValueError(f"double-NUMA VM {vm_id} must target both NUMAs")
            for numa in pm.numas:
                if not numa.can_host(vm.cpu_per_numa, vm.memory_per_numa):
                    raise ValueError(
                        f"PM {placement.pm_id} NUMA {numa.numa_id} cannot host half of VM {vm_id}"
                    )
            for numa in pm.numas:
                numa.allocate(vm_id, vm.cpu_per_numa, vm.memory_per_numa)
        else:
            if placement.numa_id not in (0, 1):
                raise ValueError(f"single-NUMA VM {vm_id} must target NUMA 0 or 1")
            numa = pm.numas[placement.numa_id]
            numa.allocate(vm_id, vm.cpu, vm.memory)
        vm.pm_id = placement.pm_id
        vm.numa_id = placement.numa_id
        if self._soa is not None and not self._soa.apply_place(vm):
            self._soa = None

    def remove_vm(self, vm_id: int) -> Placement:
        """Remove a placed VM from its PM; returns the vacated placement."""
        vm = self._own_vm(vm_id)
        if not vm.is_placed:
            raise ValueError(f"VM {vm_id} is not placed")
        pm = self._own_pm(vm.pm_id)
        previous = Placement(pm_id=vm.pm_id, numa_id=vm.numa_id)
        if vm.numa_id == BOTH_NUMAS:
            for numa in pm.numas:
                numa.release(vm_id, vm.cpu_per_numa, vm.memory_per_numa)
        else:
            pm.numas[vm.numa_id].release(vm_id, vm.cpu, vm.memory)
        vm.pm_id = None
        vm.numa_id = None
        if self._soa is not None and not self._soa.apply_remove(
            vm_id, previous.pm_id, previous.numa_id
        ):
            self._soa = None
        return previous

    def migrate_vm(
        self,
        vm_id: int,
        dest_pm_id: int,
        dest_numa_id: Optional[int] = None,
        honor_affinity: bool = True,
    ) -> Tuple[Placement, Placement]:
        """Migrate a VM to a new PM, returning (source, destination) placements.

        The operation is atomic: if the destination cannot host the VM the
        original placement is restored and a ``ValueError`` is raised.
        """
        vm = self.vms[vm_id]
        if not vm.is_placed:
            raise ValueError(f"VM {vm_id} is not placed and cannot be migrated")
        if dest_pm_id == vm.pm_id:
            raise ValueError(f"VM {vm_id} is already on PM {dest_pm_id}")
        source = self.remove_vm(vm_id)
        if dest_numa_id is None:
            dest_numa_id = self.best_numa_for(vm_id, dest_pm_id, honor_affinity=honor_affinity)
        if dest_numa_id is None:
            self.place_vm(vm_id, source, honor_affinity=False)
            raise ValueError(f"PM {dest_pm_id} cannot host VM {vm_id}")
        destination = Placement(pm_id=dest_pm_id, numa_id=dest_numa_id)
        try:
            self.place_vm(vm_id, destination, honor_affinity=honor_affinity)
        except ValueError:
            self.place_vm(vm_id, source, honor_affinity=False)
            raise
        return source, destination

    def remove_vm_from_cluster(self, vm_id: int) -> None:
        """Delete a VM entirely (a completed VM exiting, §1 / Fig. 1)."""
        vm = self.vms[vm_id]
        if vm.is_placed:
            self.remove_vm(vm_id)
        del self.vms[vm_id]
        self._owned_vms.discard(vm_id)
        self._soa = None
        self._sorted_vm_ids = None

    def add_vm(self, vm: VirtualMachine, placement: Optional[Placement] = None) -> None:
        """Add a new VM (an arrival); optionally place it immediately."""
        if vm.vm_id in self.vms:
            raise ValueError(f"VM id {vm.vm_id} already exists")
        vm.pm_id = None
        vm.numa_id = None
        self.vms[vm.vm_id] = vm
        self._owned_vms.add(vm.vm_id)
        self._soa = None
        self._sorted_vm_ids = None
        if placement is not None:
            self.place_vm(vm.vm_id, placement)

    def add_pm(self, pm: PhysicalMachine) -> None:
        """Add a new (empty) PM — a maintenance re-add or capacity expansion.

        The PM may carry a different :class:`~repro.cluster.vm_types.PMType`
        than the incumbents (a newer hardware generation).  Structural change:
        the SoA view and the sorted-id caches are dropped and rebuilt lazily.
        """
        if pm.pm_id in self.pms:
            raise ValueError(f"PM id {pm.pm_id} already exists")
        if pm.vm_ids:
            raise ValueError(f"PM {pm.pm_id} must join the cluster empty")
        self.pms[pm.pm_id] = pm
        self._owned_pms.add(pm.pm_id)
        self._soa = None
        self._sorted_pm_ids = None

    def remove_pm(self, pm_id: int) -> None:
        """Delete an *empty* PM (completed maintenance drain or failure).

        The caller is responsible for getting the hosted VMs off first —
        migrating them on a drain, removing them on a failure; a non-empty PM
        raises so resource accounting can never be silently lost.  Dropping
        the SoA here is load-bearing even though ``matches()`` only compares
        counts: a remove+add pair of the same count must still rebuild.
        """
        pm = self.pms[pm_id]
        if pm.vm_ids:
            raise ValueError(f"PM {pm_id} still hosts VMs {sorted(pm.vm_ids)}")
        if len(self.pms) == 1:
            raise ValueError("cannot remove the last PM of a cluster")
        del self.pms[pm_id]
        self._owned_pms.discard(pm_id)
        self._soa = None
        self._sorted_pm_ids = None

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def fragment_rate(self, x_cores: Optional[int] = None) -> float:
        return fragmentation.fragment_rate_arrays(
            self.arrays().numa_free_cpu, x_cores or self.fragment_cores
        )

    def memory_fragment_rate(self, x_memory: float = 64.0) -> float:
        return fragmentation.fragment_rate_arrays(self.arrays().numa_free_mem, x_memory)

    def total_fragment(self, x_cores: Optional[int] = None) -> float:
        return fragmentation.cluster_fragment_arrays(
            self.arrays().numa_free_cpu, x_cores or self.fragment_cores
        )

    def pm_fragment(self, pm_id: int, x_cores: Optional[int] = None) -> float:
        return fragmentation.pm_cpu_fragment(self.pms[pm_id], x_cores or self.fragment_cores)

    def cpu_utilization(self) -> float:
        soa = self.arrays()
        return 1.0 - float(soa.numa_free_cpu.sum()) / float(soa.numa_cap_cpu.sum())

    # ------------------------------------------------------------------ #
    # Copy / serialization
    # ------------------------------------------------------------------ #
    def copy(self) -> "ClusterState":
        """Logical deep copy with copy-on-write machine sharing.

        Only the id→machine dicts and the SoA *pages* are duplicated (both
        O(machines) but allocation-free per object); the PM/VM objects
        themselves are shared between the two states until one of them
        mutates a machine, at which point that state snapshots just the
        touched object (``_own_vm`` / ``_own_pm``).  Both states therefore
        lose exclusive ownership here.  Semantically this is still a deep
        copy — ``plan_batch`` and eval replay copy states per request, and a
        typical episode then touches a handful of machines per step — as
        long as every mutation flows through the ``ClusterState`` methods
        (``place_vm`` / ``remove_vm`` / ``migrate_vm`` / ``add_vm`` /
        ``set_anti_affinity_group``).  Writing fields directly on a machine
        object pulled out of the dicts bypasses the snapshot and corrupts
        every sharer.
        """
        clone = object.__new__(ClusterState)
        clone.fragment_cores = self.fragment_cores
        clone.pms = dict(self.pms)
        clone.vms = dict(self.vms)
        clone._owned_pms = set()
        clone._owned_vms = set()
        self._owned_pms = set()
        self._owned_vms = set()
        soa = self._soa
        clone._soa = soa.copy() if soa is not None and soa.matches(self) else None
        clone._sorted_pm_ids = self._sorted_pm_ids
        clone._sorted_vm_ids = self._sorted_vm_ids
        return clone

    def to_dict(self) -> Dict:
        """Serialize to the dataset mapping format (see repro.datasets.schema).

        The payload round-trips everything :meth:`copy` preserves — PM/VM
        flavors, placements (including NUMA targets and double-NUMA markers),
        anti-affinity groups and the cluster's ``fragment_cores`` — so a
        deserialized state reproduces the original fragment rate, feasibility
        masks and SoA view exactly.
        """
        return {
            "fragment_cores": self.fragment_cores,
            "pms": [
                {
                    "pm_id": pm.pm_id,
                    "type": pm.pm_type.name,
                    "cpu": pm.pm_type.cpu,
                    "memory": pm.pm_type.memory,
                }
                for pm in self.pm_list()
            ],
            "vms": [
                {
                    "vm_id": vm.vm_id,
                    "type": vm.vm_type.name,
                    "cpu": vm.vm_type.cpu,
                    "memory": vm.vm_type.memory,
                    "numa_count": vm.vm_type.numa_count,
                    "pm_id": vm.pm_id,
                    "numa_id": vm.numa_id,
                    "anti_affinity_group": vm.anti_affinity_group,
                }
                for vm in self.vm_list()
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ClusterState":
        pms = []
        for pm_spec in payload["pms"]:
            pm_type = PMType(
                name=pm_spec.get("type", DEFAULT_PM_TYPE.name),
                cpu=int_field(pm_spec["cpu"], "cpu"),
                memory=int_field(pm_spec["memory"], "memory"),
            )
            pms.append(PhysicalMachine(pm_id=int_field(pm_spec["pm_id"], "pm_id"), pm_type=pm_type))
        vms = []
        for vm_spec in payload["vms"]:
            vm_type = VMType(
                name=vm_spec.get("type", f"custom-{vm_spec['cpu']}c"),
                cpu=int_field(vm_spec["cpu"], "cpu"),
                memory=int_field(vm_spec["memory"], "memory"),
                numa_count=int_field(vm_spec.get("numa_count", 1), "numa_count"),
            )
            pm_id, numa_id = vm_spec.get("pm_id"), vm_spec.get("numa_id")
            vms.append(
                VirtualMachine(
                    vm_id=int_field(vm_spec["vm_id"], "vm_id"),
                    vm_type=vm_type,
                    pm_id=None if pm_id is None else int_field(pm_id, "pm_id"),
                    numa_id=None if numa_id is None else int_field(numa_id, "numa_id"),
                    anti_affinity_group=_group_field(vm_spec.get("anti_affinity_group")),
                )
            )
        fragment_cores = int_field(
            payload.get("fragment_cores", fragmentation.DEFAULT_FRAGMENT_CORES),
            "fragment_cores",
        )
        return cls(pms=pms, vms=vms, fragment_cores=fragment_cores)

    def to_json(self) -> str:
        """JSON form of :meth:`to_dict` (one line, used by requests/datasets)."""
        import json

        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ClusterState":
        import json

        return cls.from_dict(json.loads(text))
