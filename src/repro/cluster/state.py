"""Cluster state: the VM→PM/NUMA placement bookkeeping of one cluster.

A :class:`ClusterState` keeps its cluster in one store, the SoA view
(:class:`~repro.cluster.soa.ClusterArrays`, :meth:`ClusterState.arrays`):
free capacity per NUMA and every VM's placement.  Beside it sit only
immutable records — a VM's type and anti-affinity group, a PM's type — which
copies share.  The state provides the operations every algorithm in this
repository relies on:

* feasibility checks for placing a VM on a PM (capacity + NUMA + anti-affinity),
* placement / removal / migration, which validate and change the arrays in
  place,
* structural changes (VMs and PMs joining or leaving, group assignments),
  which build a new view over the records and the current placements,
* fragment-rate metrics over the arrays (:mod:`repro.cluster.fragmentation`),
* copies for search / simulation (the placement arrays are copied, the
  records shared), and
* dict round-tripping used by the dataset format.

``state.pms`` and ``state.vms`` map ids to snapshots — a
:class:`~repro.cluster.machine.PhysicalMachine` or
:class:`~repro.cluster.machine.VirtualMachine` built from the arrays on each
lookup, for serialization, display and tests.  They iterate in the order the
machines joined.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import fragmentation
from .machine import BOTH_NUMAS, NumaNode, PhysicalMachine, VirtualMachine, VMRecord
from .soa import UNPLACED_NUMA, ClusterArrays, has_room, prefers_numa_one
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


class _Snapshots(Mapping):
    """Read-only id → machine mapping: every lookup builds a snapshot from
    the arrays; iteration follows the records (joining order)."""

    __slots__ = ("_records", "_snapshot")

    def __init__(self, records: Mapping, snapshot: Callable) -> None:
        self._records = records
        self._snapshot = snapshot

    def __getitem__(self, machine_id):
        if machine_id not in self._records:
            raise KeyError(machine_id)
        return self._snapshot(machine_id)

    def __contains__(self, machine_id) -> bool:
        return machine_id in self._records

    def __iter__(self):
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)


class ClusterState:
    """Mutable state of one data-center cluster."""

    def __init__(
        self,
        pms: Sequence[PhysicalMachine],
        vms: Sequence[VirtualMachine],
        fragment_cores: int = fragmentation.DEFAULT_FRAGMENT_CORES,
    ) -> None:
        self._setup(
            [(pm.pm_id, pm.pm_type) for pm in pms],
            [(vm.vm_id, VMRecord(vm.vm_type, vm.anti_affinity_group), vm.pm_id, vm.numa_id) for vm in vms],
            fragment_cores,
        )

    def _setup(self, pms: list, vms: list, fragment_cores: int) -> None:
        """Build from ``(pm_id, pm_type)`` pairs and ``(vm_id, record, pm_id,
        numa_id)`` rows, placing every VM that names a PM."""
        if not pms:
            raise ValueError("cluster requires at least one PM")
        self.fragment_cores = fragment_cores
        self._pm_types: Dict[int, PMType] = dict(pms)
        if len(self._pm_types) != len(pms):
            raise ValueError("duplicate PM ids")
        self._vm_records: Dict[int, VMRecord] = {vm_id: record for vm_id, record, _, _ in vms}
        if len(self._vm_records) != len(vms):
            raise ValueError("duplicate VM ids")
        self._install(ClusterArrays.empty(self._pm_types, self._vm_records))
        # Pre-existing co-locations are allowed: anti-affinity only constrains
        # *new* rescheduling decisions (§5.4).
        default_numa = {1: 0, 2: BOTH_NUMAS}
        placements = [
            (vm_id, Placement(pm_id, default_numa[record.vm_type.numa_count] if numa_id is None else numa_id))
            for vm_id, record, pm_id, numa_id in vms
            if pm_id is not None
        ]
        if placements and not self._place_all(placements):
            # Place one by one so that the first bad placement raises its error.
            for vm_id, placement in placements:
                self.place_vm(vm_id, placement, honor_affinity=False)

    def _place_all(self, placements: List[Tuple[int, Placement]]) -> bool:
        """Place unplaced VMs at once, exactly as one ``place_vm`` each would;
        False, with the view untouched, when a PM is unknown, a NUMA target
        does not suit the VM or a NUMA ends up over-committed."""
        soa = self._soa
        if any(placement.pm_id not in soa.pm_row for _, placement in placements):
            return False
        rows = np.asarray([soa.vm_row[vm_id] for vm_id, _ in placements], dtype=np.int64)
        columns = np.asarray([soa.pm_row[p.pm_id] for _, p in placements], dtype=np.int64)
        numas = np.asarray([p.numa_id for _, p in placements])
        if not np.where(soa.vm_double[rows], numas == BOTH_NUMAS, (numas == 0) | (numas == 1)).all():
            return False
        free_cpu, free_mem = soa.numa_free_cpu.copy(), soa.numa_free_mem.copy()
        for numa in (0, 1):
            on = (numas == numa) | (numas == BOTH_NUMAS)
            np.subtract.at(free_cpu[:, numa], columns[on], soa.vm_cpu_half[rows[on]])
            np.subtract.at(free_mem[:, numa], columns[on], soa.vm_mem_half[rows[on]])
        # Free capacity only shrinks as VMs land, so every placement had room
        # iff the final free arrays still hold an empty request.
        if not has_room(free_cpu, free_mem, 0.0, 0.0).all():
            return False
        soa.numa_free_cpu[...], soa.numa_free_mem[...] = free_cpu, free_mem
        soa.vm_pm[rows], soa.vm_numa[rows] = columns, numas
        return True

    def _install(self, soa: ClusterArrays) -> None:
        self._soa = soa
        self._sorted_pm_ids: List[int] = soa.pm_ids.tolist()
        self._sorted_vm_ids: List[int] = soa.vm_ids.tolist()

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def pms(self) -> Mapping:
        """PM id → :class:`PhysicalMachine` snapshot (read-only)."""
        return _Snapshots(self._pm_types, self._pm_snapshot)

    @property
    def vms(self) -> Mapping:
        """VM id → :class:`VirtualMachine` snapshot (read-only)."""
        return _Snapshots(self._vm_records, self._vm_snapshot)

    @property
    def num_pms(self) -> int:
        return len(self._pm_types)

    @property
    def num_vms(self) -> int:
        return len(self._vm_records)

    def sorted_pm_ids(self) -> List[int]:
        """Sorted PM ids (the ordering every mask/featurizer uses); shared,
        treat as read-only."""
        return self._sorted_pm_ids

    def sorted_vm_ids(self) -> List[int]:
        """Sorted VM ids; shared, treat as read-only."""
        return self._sorted_vm_ids

    def arrays(self) -> ClusterArrays:
        """The SoA view, the one store of this state's placements and free
        capacity.  Read it freely; change it only through this state's
        methods."""
        return self._soa

    def _vm_snapshot(self, vm_id: int) -> VirtualMachine:
        soa = self._soa
        row = soa.vm_row[vm_id]
        column = int(soa.vm_pm[row])
        vm_type, group = self._vm_records[vm_id]
        return VirtualMachine(
            vm_id=vm_id,
            vm_type=vm_type,
            pm_id=int(soa.pm_ids[column]) if column >= 0 else None,
            numa_id=int(soa.vm_numa[row]) if column >= 0 else None,
            anti_affinity_group=group,
        )

    def _pm_snapshot(self, pm_id: int) -> PhysicalMachine:
        soa = self._soa
        row = soa.pm_row[pm_id]
        pm_type = self._pm_types[pm_id]
        hosted = soa.vm_pm == row
        numas = [
            NumaNode(
                pm_id=pm_id,
                numa_id=numa_id,
                cpu_capacity=pm_type.cpu_per_numa,
                memory_capacity=pm_type.memory_per_numa,
                free_cpu=float(soa.numa_free_cpu[row, numa_id]),
                free_memory=float(soa.numa_free_mem[row, numa_id]),
                vm_ids=set(
                    soa.vm_ids[
                        hosted & ((soa.vm_numa == numa_id) | (soa.vm_numa == BOTH_NUMAS))
                    ].tolist()
                ),
            )
            for numa_id in (0, 1)
        ]
        return PhysicalMachine(pm_id=pm_id, pm_type=pm_type, numas=numas)

    def pm_type(self, pm_id: int) -> PMType:
        return self._pm_types[pm_id]

    def placed_vm_ids(self) -> List[int]:
        soa = self._soa
        return soa.vm_ids[soa.vm_pm >= 0].tolist()

    # ------------------------------------------------------------------ #
    # Anti-affinity
    # ------------------------------------------------------------------ #
    def set_anti_affinity_group(self, vm_id: int, group: Optional[Union[int, str]]) -> None:
        """Assign a VM's anti-affinity group.  The SoA view holds the groups
        in ``vm_group``, so this builds a new view (copied placements)."""
        record = self._vm_records[vm_id]
        self._vm_records = {**self._vm_records, vm_id: record._replace(anti_affinity_group=group)}
        soa = self._soa.copy()
        soa.regroup(self._groups())
        self._soa = soa

    def _groups(self) -> list:
        """Group label of every VM, in sorted VM order."""
        records = self._vm_records
        return [records[vm_id].anti_affinity_group for vm_id in self._sorted_vm_ids]

    def _group_blocks(self, row: int, column: int) -> bool:
        """Whether another placed VM of VM row ``row``'s group sits on PM row
        ``column``."""
        soa = self._soa
        group = soa.vm_group[row]
        return group >= 0 and bool(soa.group_hosts(group, row)[column])

    def affinity_ratio(self) -> float:
        """Average fraction of other VMs a VM conflicts with (Table 2 metric)."""
        total_vms = self.num_vms
        if total_vms <= 1:
            return 0.0
        group = self._soa.vm_group
        sizes = np.bincount(group[group >= 0])
        return int((sizes * (sizes - 1)).sum()) / (total_vms * (total_vms - 1))

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
        soa = self._soa
        row, column = soa.vm_row[vm_id], soa.pm_row[pm_id]
        if honor_affinity and self._group_blocks(row, column):
            return []
        room = self._room(row, column)
        if soa.vm_double[row]:
            return [BOTH_NUMAS] if room[0] and room[1] else []
        return [numa_id for numa_id in (0, 1) if room[numa_id]]

    def _room(self, row: int, column: int) -> tuple:
        """Whether each NUMA of PM row ``column`` has room for VM row
        ``row``'s per-NUMA request (numpy bools)."""
        soa = self._soa
        cpu, mem = soa.vm_cpu_half[row], soa.vm_mem_half[row]
        free_cpu, free_mem = soa.numa_free_cpu[column], soa.numa_free_mem[column]
        return has_room(free_cpu[0], free_mem[0], cpu, mem), has_room(free_cpu[1], free_mem[1], cpu, mem)

    def can_host(self, vm_id: int, pm_id: int, honor_affinity: bool = True) -> bool:
        """Whether ``pm_id`` can host ``vm_id`` on at least one NUMA target."""
        return bool(self.feasible_numas(vm_id, pm_id, honor_affinity=honor_affinity))

    def feasible_destination_pms(self, vm_id: int) -> List[int]:
        """The PMs ``vm_id`` could migrate to right now: its row of the
        feasibility matrix (never its source PM, anti-affinity always holds,
        none for an unplaced VM)."""
        soa = self._soa
        return soa.pm_ids[soa.feasibility()[soa.vm_row[vm_id]]].tolist()

    def best_numa_for(self, vm_id: int, pm_id: int, honor_affinity: bool = True) -> Optional[int]:
        """Pick the NUMA on ``pm_id`` minimizing the resulting fragment (best fit).

        Returns ``None`` when the PM cannot host the VM at all.  The choice is
        the move-scoring rule's (:func:`~repro.cluster.soa.prefers_numa_one`,
        as in :meth:`ClusterArrays.placement_scores`) for one pair: a
        single-NUMA VM goes to the feasible NUMA whose post-placement X-core
        fragment is smallest, then to the one with less free CPU, then NUMA 0.
        """
        soa = self._soa
        row, column = soa.vm_row[vm_id], soa.pm_row[pm_id]
        if honor_affinity and self._group_blocks(row, column):
            return None
        fits0, fits1 = self._room(row, column)
        if soa.vm_double[row]:
            return BOTH_NUMAS if fits0 and fits1 else None
        if not (fits0 or fits1):
            return None
        free = soa.numa_free_cpu[column]
        landed = (free - soa.vm_cpu_half[row]) % self.fragment_cores
        return int(prefers_numa_one(fits0, fits1, landed[0], landed[1], free[0], free[1]))

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def place_vm(self, vm_id: int, placement: Placement, honor_affinity: bool = True) -> None:
        """Place an unplaced VM on the given PM/NUMA target."""
        soa = self._soa
        row = soa.vm_row[vm_id]
        if soa.vm_pm[row] >= 0:
            raise ValueError(f"VM {vm_id} is already placed on PM {soa.pm_ids[soa.vm_pm[row]]}")
        pm_id, numa_id = placement.pm_id, placement.numa_id
        column = soa.pm_row[pm_id]
        if honor_affinity and self._group_blocks(row, column):
            raise ValueError(f"placing VM {vm_id} on PM {pm_id} violates anti-affinity")
        room = self._room(row, column)
        if soa.vm_double[row]:
            if numa_id != BOTH_NUMAS:
                raise ValueError(f"double-NUMA VM {vm_id} must target both NUMAs")
            for numa in (0, 1):
                if not room[numa]:
                    raise ValueError(f"PM {pm_id} NUMA {numa} cannot host half of VM {vm_id}")
            numas = (0, 1)
        else:
            if numa_id not in (0, 1):
                raise ValueError(f"single-NUMA VM {vm_id} must target NUMA 0 or 1")
            if not room[numa_id]:
                vm_type = self._vm_records[vm_id].vm_type
                raise ValueError(
                    f"NUMA ({pm_id},{numa_id}) cannot host VM {vm_id}: "
                    f"needs cpu={vm_type.cpu}/mem={vm_type.memory}, "
                    f"free cpu={float(soa.numa_free_cpu[column, numa_id])}"
                    f"/mem={float(soa.numa_free_mem[column, numa_id])}"
                )
            numas = (numa_id,)
        free_cpu, free_mem = soa.numa_free_cpu[column], soa.numa_free_mem[column]
        for numa in numas:
            free_cpu[numa] -= soa.vm_cpu_half[row]
            free_mem[numa] -= soa.vm_mem_half[row]
        soa.vm_pm[row] = column
        soa.vm_numa[row] = numa_id
        soa.version += 1

    def remove_vm(self, vm_id: int) -> Placement:
        """Remove a placed VM from its PM; returns the vacated placement.
        The freed resources are added back clamped at each NUMA's capacity."""
        soa = self._soa
        row = soa.vm_row[vm_id]
        column = soa.vm_pm[row]
        if column < 0:
            raise ValueError(f"VM {vm_id} is not placed")
        numa_id = int(soa.vm_numa[row])
        free_cpu, free_mem = soa.numa_free_cpu[column], soa.numa_free_mem[column]
        for numa in (0, 1) if numa_id == BOTH_NUMAS else (numa_id,):
            free_cpu[numa] = min(free_cpu[numa] + soa.vm_cpu_half[row], soa.numa_cap_cpu[column, numa])
            free_mem[numa] = min(free_mem[numa] + soa.vm_mem_half[row], soa.numa_cap_mem[column, numa])
        soa.vm_pm[row] = -1
        soa.vm_numa[row] = UNPLACED_NUMA
        soa.version += 1
        return Placement(pm_id=int(soa.pm_ids[column]), numa_id=numa_id)

    def migrate_vm(
        self,
        vm_id: int,
        dest_pm_id: int,
        dest_numa_id: Optional[int] = None,
        honor_affinity: bool = True,
    ) -> Tuple[Placement, Placement]:
        """Migrate a VM to a new PM, returning (source, destination) placements.

        The operation is atomic: an unknown destination raises ``KeyError``
        before anything moves, and if the destination cannot host the VM the
        original placement is restored and a ``ValueError`` is raised.
        """
        soa = self._soa
        column = soa.vm_pm[soa.vm_row[vm_id]]
        if column < 0:
            raise ValueError(f"VM {vm_id} is not placed and cannot be migrated")
        if soa.pm_row[dest_pm_id] == column:
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

    def _reshape(
        self,
        pm_types: Dict[int, PMType],
        vm_records: Dict[int, VMRecord],
        keep_vms: Optional[np.ndarray] = None,
        keep_pms: Optional[np.ndarray] = None,
        joining: Optional[ClusterArrays] = None,
    ) -> None:
        """Structural change: swap in new records and a new view over them
        (:meth:`ClusterArrays.reshaped`).  Kept machines keep their placements
        and free capacity; ``joining`` machines arrive unplaced and empty."""
        self._pm_types, self._vm_records = pm_types, vm_records
        self._install(self._soa.reshaped(keep_vms, keep_pms, joining))
        if self._soa.vm_group.max(initial=-1) >= 0:
            self._soa.regroup(self._groups())

    def remove_vm_from_cluster(self, vm_id: int) -> None:
        """Delete a VM entirely (a completed VM exiting, §1 / Fig. 1)."""
        soa = self._soa
        row = soa.vm_row[vm_id]
        if soa.vm_pm[row] >= 0:
            self.remove_vm(vm_id)
        records = dict(self._vm_records)
        del records[vm_id]
        keep = np.ones(soa.num_vms, dtype=bool)
        keep[row] = False
        self._reshape(self._pm_types, records, keep_vms=keep)

    def add_vm(self, vm: VirtualMachine, placement: Optional[Placement] = None) -> None:
        """Add a new VM (an arrival), unplaced whatever ``vm`` says;
        optionally place it immediately."""
        if vm.vm_id in self._vm_records:
            raise ValueError(f"VM id {vm.vm_id} already exists")
        record = VMRecord(vm.vm_type, vm.anti_affinity_group)
        self._reshape(
            self._pm_types,
            {**self._vm_records, vm.vm_id: record},
            joining=ClusterArrays.empty({}, {vm.vm_id: record}),
        )
        if placement is not None:
            self.place_vm(vm.vm_id, placement)

    def add_pm(self, pm: PhysicalMachine) -> None:
        """Add a new (empty) PM — a maintenance re-add or capacity expansion.

        The PM may carry a different :class:`~repro.cluster.vm_types.PMType`
        than the incumbents (a newer hardware generation).
        """
        if pm.pm_id in self._pm_types:
            raise ValueError(f"PM id {pm.pm_id} already exists")
        if pm.vm_ids:
            raise ValueError(f"PM {pm.pm_id} must join the cluster empty")
        self._reshape(
            {**self._pm_types, pm.pm_id: pm.pm_type},
            self._vm_records,
            joining=ClusterArrays.empty({pm.pm_id: pm.pm_type}, {}),
        )

    def remove_pm(self, pm_id: int) -> None:
        """Delete an *empty* PM (completed maintenance drain or failure).

        The caller is responsible for getting the hosted VMs off first —
        migrating them on a drain, removing them on a failure; a non-empty PM
        raises so resource accounting can never be silently lost.
        """
        soa = self._soa
        row = soa.pm_row[pm_id]
        hosted = soa.vm_ids[soa.vm_pm == row]
        if hosted.size:
            raise ValueError(f"PM {pm_id} still hosts VMs {hosted.tolist()}")
        if self.num_pms == 1:
            raise ValueError("cannot remove the last PM of a cluster")
        pm_types = dict(self._pm_types)
        del pm_types[pm_id]
        keep = np.ones(soa.num_pms, dtype=bool)
        keep[row] = False
        self._reshape(pm_types, self._vm_records, keep_pms=keep)

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def fragment_rate(self, x_cores: Optional[int] = None) -> float:
        return fragmentation.fragment_rate_arrays(
            self._soa.numa_free_cpu, x_cores or self.fragment_cores
        )

    def memory_fragment_rate(self, x_memory: float = 64.0) -> float:
        return fragmentation.fragment_rate_arrays(self._soa.numa_free_mem, x_memory)

    def total_fragment(self, x_cores: Optional[int] = None) -> float:
        return fragmentation.fragment_arrays(
            self._soa.numa_free_cpu, x_cores or self.fragment_cores
        )

    def pm_fragment(self, pm_id: int, x_cores: Optional[int] = None) -> float:
        soa = self._soa
        return fragmentation.fragment_arrays(
            soa.numa_free_cpu[soa.pm_row[pm_id]], x_cores or self.fragment_cores
        )

    def cpu_utilization(self) -> float:
        soa = self._soa
        return 1.0 - float(soa.numa_free_cpu.sum()) / float(soa.numa_cap_cpu.sum())

    # ------------------------------------------------------------------ #
    # Copy / serialization
    # ------------------------------------------------------------------ #
    def copy(self) -> "ClusterState":
        """Independent copy: the view's placement arrays are copied; the
        records and the view's fixed arrays (ids, capacities, demands,
        groups), which never change in place, are shared."""
        clone = object.__new__(ClusterState)
        clone.fragment_cores = self.fragment_cores
        clone._pm_types = self._pm_types
        clone._vm_records = self._vm_records
        clone._soa = self._soa.copy()
        clone._sorted_pm_ids = self._sorted_pm_ids
        clone._sorted_vm_ids = self._sorted_vm_ids
        return clone

    def to_dict(self) -> Dict:
        """Serialize to the dataset mapping format (see repro.datasets.schema).

        The payload round-trips everything :meth:`copy` preserves — PM/VM
        flavors, placements (including NUMA targets and double-NUMA markers),
        anti-affinity groups and the cluster's ``fragment_cores`` — so a
        deserialized state reproduces the original arrays exactly.
        """
        soa = self._soa
        pm_ids = self._sorted_pm_ids
        vms = []
        for vm_id, column, numa_id in zip(self._sorted_vm_ids, soa.vm_pm.tolist(), soa.vm_numa.tolist()):
            vm_type, group = self._vm_records[vm_id]
            placed = column >= 0
            vms.append(
                {
                    "vm_id": vm_id,
                    "type": vm_type.name,
                    "cpu": vm_type.cpu,
                    "memory": vm_type.memory,
                    "numa_count": vm_type.numa_count,
                    "pm_id": pm_ids[column] if placed else None,
                    "numa_id": numa_id if placed else None,
                    "anti_affinity_group": group,
                }
            )
        return {
            "fragment_cores": self.fragment_cores,
            "pms": [
                {
                    "pm_id": pm_id,
                    "type": pm_type.name,
                    "cpu": pm_type.cpu,
                    "memory": pm_type.memory,
                }
                for pm_id, pm_type in ((pm_id, self._pm_types[pm_id]) for pm_id in pm_ids)
            ],
            "vms": vms,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ClusterState":
        pms = [
            (
                int_field(pm_spec["pm_id"], "pm_id"),
                PMType(
                    name=pm_spec.get("type", DEFAULT_PM_TYPE.name),
                    cpu=int_field(pm_spec["cpu"], "cpu"),
                    memory=int_field(pm_spec["memory"], "memory"),
                ),
            )
            for pm_spec in payload["pms"]
        ]
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
                (
                    int_field(vm_spec["vm_id"], "vm_id"),
                    VMRecord(vm_type, _group_field(vm_spec.get("anti_affinity_group"))),
                    None if pm_id is None else int_field(pm_id, "pm_id"),
                    None if numa_id is None else int_field(numa_id, "numa_id"),
                )
            )
        fragment_cores = int_field(
            payload.get("fragment_cores", fragmentation.DEFAULT_FRAGMENT_CORES),
            "fragment_cores",
        )
        state = object.__new__(cls)
        state._setup(pms, vms, fragment_cores)
        return state

    def to_json(self) -> str:
        """JSON form of :meth:`to_dict` (one line, used by requests/datasets)."""
        import json

        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ClusterState":
        import json

        return cls.from_dict(json.loads(text))
