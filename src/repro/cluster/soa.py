"""Structure-of-arrays (SoA) view of a cluster: the one store of its state.

:class:`ClusterArrays` holds everything about a cluster that changes — free
capacity per NUMA and every VM's placement — as contiguous numpy arrays, so
the per-step hot paths (feasibility masks over all VMs × PMs, move scoring,
featurization, fragment metrics) are broadcast boolean algebra and sliced
array ops.  :class:`~repro.cluster.state.ClusterState` owns one view, mutates
it in place through ``place_vm`` / ``remove_vm`` / ``migrate_vm``, and beside
it keeps only immutable records (a VM's type and group, a PM's type).

Layout (rows follow the *sorted* id order, the same order every mask and
observation in this repository uses):

* ``pm_ids``            — ``(P,)`` int64, sorted PM ids
* ``numa_free_cpu``     — ``(P, 2)`` float64, free CPU per NUMA
* ``numa_free_mem``     — ``(P, 2)`` float64, free memory per NUMA
* ``numa_cap_cpu/mem``  — ``(P, 2)`` float64 capacities
* ``vm_ids``            — ``(V,)`` int64, sorted VM ids
* ``vm_cpu`` / ``vm_mem``        — ``(V,)`` full resource request
* ``vm_cpu_half`` / ``vm_mem_half`` — ``(V,)`` per-NUMA request (request/2
  for double-NUMA VMs, the full request otherwise)
* ``vm_double``         — ``(V,)`` bool, True for 2-NUMA VMs
* ``vm_pm``             — ``(V,)`` int64 row index into the PM arrays
  (``-1`` when unplaced)
* ``vm_numa``           — ``(V,)`` int64 NUMA target: 0/1, ``-1`` for
  BOTH_NUMAS, ``-2`` when unplaced
* ``vm_group``          — ``(V,)`` int64 dense anti-affinity group index
  (``-1`` for no group), numbered in first-seen sorted-VM order;
  ``group_code`` maps each group label to its index
* ``version``           — int, bumped on every placement mutation

A placement bumps ``version`` and changes the arrays in place: a VM landing
subtracts its per-NUMA demand from the free arrays, a VM leaving adds it back
clamped at the NUMA's capacity.  A structural change (a VM or PM joining or
leaving, a group assignment) builds a new view (:meth:`ClusterArrays.reshaped`,
:meth:`ClusterArrays.regroup`), so consumers that key caches on the view's
identity start over.  ``copy()`` copies the placement arrays and shares the
rest, which never change in place.

The view answers the two questions every planner asks about a move:

* **Is it legal?**  :meth:`ClusterArrays.feasibility` is the one legality
  rule, a memoized ``(V, P)`` matrix (capacity per NUMA count, anti-affinity,
  never the source PM) that every mask, the env's action check and the search
  baselines read.  The memo is patched from the view's own diff
  (:meth:`~ClusterArrays.changed_since` against the snapshot it was built
  from) or rebuilt, through one block function, :func:`_feasibility_block`.
  Capacity is one comparison, :func:`has_room`, which placements check too.
* **What does it do to the fragment?**  :meth:`ClusterArrays.move_scores`
  is the one move-scoring rule: the X-core fragment change of a VM leaving
  its PM (:meth:`~ClusterArrays.source_deltas`) and landing on each PM
  (:meth:`~ClusterArrays.placement_scores`, whose NUMA choice
  ``ClusterState.best_numa_for`` returns).  HA, α-VBPP and MCTS rank moves
  with it instead of probing them by remove/place.

The view keeps no history.  A consumer that patches what it derived from an
earlier state keeps a :meth:`ClusterArrays.snapshot` and asks
:meth:`ClusterArrays.changed_since` which rows moved since.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .machine import BOTH_NUMAS, FEASIBILITY_EPS, VMRecord
from .vm_types import PMType

#: ``vm_numa`` marker for an unplaced VM.
UNPLACED_NUMA = -2

#: The feasibility matrix is patched in place while at most one PM in this
#: many can have been touched since it was built, and rebuilt otherwise.
#: Measured ``movable_vm_mask`` after one migration (two PMs touched), rebuild
#: vs patch: 8 PMs / 85 VMs 88 vs 108 µs, 12 PMs even (140 µs), 16 PMs / 179
#: VMs 209 vs 137 µs, 40 PMs / 335 VMs 733 vs 183 µs, 120 PMs / 1092 VMs
#: 5980 vs 440 µs.
_PATCH_PM_DIVISOR = 8

#: Per-PM and per-VM arrays that :meth:`ClusterArrays.reshaped` carries over
#: row by row (``vm_pm`` also gets remapped when PM rows change).
_PM_COLUMNS = ("numa_free_cpu", "numa_free_mem", "numa_cap_cpu", "numa_cap_mem")

#: What a placement changes in place (:meth:`ClusterArrays.copy` copies it),
#: and what never changes in place (copies share it).
_PLACEMENT = ("numa_free_cpu", "numa_free_mem", "vm_pm", "vm_numa")
_SHARED = (
    "pm_ids", "pm_row", "numa_cap_cpu", "numa_cap_mem", "vm_ids", "vm_row", "vm_cpu", "vm_mem",
    "vm_cpu_half", "vm_mem_half", "vm_double", "vm_group", "group_code", "version",
)
_VM_COLUMNS = (
    "vm_cpu", "vm_mem", "vm_cpu_half", "vm_mem_half", "vm_double", "vm_pm", "vm_numa", "vm_group",
)


class ClusterArrays:
    """The array store of one :class:`~repro.cluster.state.ClusterState`."""

    __slots__ = _PLACEMENT + _SHARED + ("_feasibility_memo",)

    @property
    def num_pms(self) -> int:
        return self.pm_ids.shape[0]

    @property
    def num_vms(self) -> int:
        return self.vm_ids.shape[0]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(
        cls, pm_types: Mapping[int, PMType], vm_records: Mapping[int, VMRecord]
    ) -> "ClusterArrays":
        """A view of the given machines (id → PM type, id → VM record) with
        every NUMA free and every VM unplaced."""
        pm_id_list = sorted(pm_types)
        vm_id_list = sorted(vm_records)
        soa = object.__new__(cls)
        soa.version = 0
        soa._feasibility_memo = None
        soa._set_ids("pm", np.array(pm_id_list, dtype=np.int64))
        soa._set_ids("vm", np.array(vm_id_list, dtype=np.int64))
        pms = [pm_types[pm_id] for pm_id in pm_id_list]
        soa.numa_cap_cpu = np.array([(t.cpu_per_numa,) * 2 for t in pms], dtype=np.float64).reshape(-1, 2)
        soa.numa_cap_mem = np.array([(t.memory_per_numa,) * 2 for t in pms], dtype=np.float64).reshape(-1, 2)
        soa.numa_free_cpu = soa.numa_cap_cpu.copy()
        soa.numa_free_mem = soa.numa_cap_mem.copy()
        records = [vm_records[vm_id] for vm_id in vm_id_list]
        demands = np.array(
            [(r.vm_type.cpu, r.vm_type.memory, r.vm_type.numa_count) for r in records], dtype=np.float64
        ).reshape(-1, 3)
        soa.vm_cpu, soa.vm_mem = demands[:, 0].copy(), demands[:, 1].copy()
        soa.vm_double = demands[:, 2] == 2
        soa.vm_cpu_half = soa.vm_cpu / demands[:, 2]
        soa.vm_mem_half = soa.vm_mem / demands[:, 2]
        soa.vm_pm = np.full(len(records), -1, dtype=np.int64)
        soa.vm_numa = np.full(len(records), UNPLACED_NUMA, dtype=np.int64)
        soa.regroup([record.anti_affinity_group for record in records])
        return soa

    def _set_ids(self, kind: str, ids: np.ndarray) -> None:
        """Set the sorted ``{kind}_ids`` and the ``{kind}_row`` lookup.  The id
        arrays are shared widely (observations, state copies); they are frozen
        so an accidental write cannot corrupt every sharer's ordering."""
        ids.flags.writeable = False
        setattr(self, f"{kind}_ids", ids)
        setattr(self, f"{kind}_row", dict(zip(ids.tolist(), range(len(ids)))))

    def regroup(self, groups: Sequence) -> None:
        """Set ``vm_group`` from each sorted VM's group label (``None`` for
        none): dense indices in first-seen order."""
        code: dict = {}
        self.vm_group = np.asarray(
            [-1 if group is None else code.setdefault(group, len(code)) for group in groups],
            dtype=np.int64,
        )
        self.group_code = code

    def reshaped(self, keep_vms=None, keep_pms=None, joining=None) -> "ClusterArrays":
        """A new view of this view's kept rows (``keep_vms`` / ``keep_pms``:
        boolean masks, ``None`` to keep all) plus every row of ``joining``,
        whose VMs are unplaced and PMs empty, in id order.

        Kept VMs keep their placements and kept PMs their free capacity, so no
        kept VM may sit on a dropped PM.  The arrays of an unchanged side are
        shared as in :meth:`copy`.  When VMs change, ``vm_group`` is the two
        views' columns side by side and ``group_code`` is empty: regroup when
        either has a group.
        """
        joining = _NOTHING if joining is None else joining
        soa = self.copy()
        if keep_pms is not None or joining.num_pms:
            pm_ids, order = _merged_ids(self.pm_ids, keep_pms, joining.pm_ids)
            soa._set_ids("pm", pm_ids)
            for name in _PM_COLUMNS:
                setattr(soa, name, _merged(getattr(self, name), keep_pms, getattr(joining, name), order))
            host = np.where(self.vm_pm >= 0, self.pm_ids[self.vm_pm], -1)
            soa.vm_pm = np.where(host >= 0, np.searchsorted(pm_ids, host), -1)
        if keep_vms is not None or joining.num_vms:
            vm_ids, order = _merged_ids(self.vm_ids, keep_vms, joining.vm_ids)
            soa._set_ids("vm", vm_ids)
            for name in _VM_COLUMNS:
                setattr(soa, name, _merged(getattr(soa, name), keep_vms, getattr(joining, name), order))
            soa.group_code = {}
        return soa

    def copy(self) -> "ClusterArrays":
        """O(arrays) snapshot: the placement arrays are copied, everything
        else (ids, capacities, demands, groups) is shared — it never changes
        in place."""
        clone = object.__new__(ClusterArrays)
        clone.numa_free_cpu = self.numa_free_cpu.copy()
        clone.numa_free_mem = self.numa_free_mem.copy()
        clone.vm_pm = self.vm_pm.copy()
        clone.vm_numa = self.vm_numa.copy()
        clone.pm_ids = self.pm_ids
        clone.pm_row = self.pm_row
        clone.numa_cap_cpu = self.numa_cap_cpu
        clone.numa_cap_mem = self.numa_cap_mem
        clone.vm_ids = self.vm_ids
        clone.vm_row = self.vm_row
        clone.vm_cpu = self.vm_cpu
        clone.vm_mem = self.vm_mem
        clone.vm_cpu_half = self.vm_cpu_half
        clone.vm_mem_half = self.vm_mem_half
        clone.vm_double = self.vm_double
        clone.vm_group = self.vm_group
        clone.group_code = self.group_code
        clone.version = self.version
        # Consumers key their caches on the view's identity, so a clone never
        # satisfies a cache built against the original (and vice versa).
        clone._feasibility_memo = None
        return clone

    def group_hosts(self, group: int, row: int = -1) -> np.ndarray:
        """``(P,)`` bool: PMs hosting a placed VM of dense group ``group``
        (none for ``-1``), VM row ``row`` left out."""
        hosts = np.zeros(self.num_pms, dtype=bool)
        if group >= 0:
            members = (self.vm_group == group) & (self.vm_pm >= 0)
            if row >= 0:
                members[row] = False
            hosts[self.vm_pm[members]] = True
        return hosts

    # ------------------------------------------------------------------ #
    # Measured dirty sets
    # ------------------------------------------------------------------ #
    def snapshot(self) -> tuple:
        """Copies of the placement arrays that :meth:`changed_since` diffs."""
        return self.vm_pm.copy(), self.numa_free_cpu.copy(), self.numa_free_mem.copy()

    def changed_since(self, snapshot: tuple) -> tuple:
        """Rows that moved since ``snapshot``: sorted ``(vm_rows, pm_rows)``.

        The VM rows are those whose host changed; the PM rows are those whose
        free capacity changed, plus both hosts of every moved VM.  A VM that
        left and came back is not a moved VM.
        """
        vm_pm, free_cpu, free_mem = snapshot
        vm_rows = np.flatnonzero(self.vm_pm != vm_pm)
        pm_dirty = ((self.numa_free_cpu != free_cpu) | (self.numa_free_mem != free_mem)).any(axis=1)
        hosts = np.concatenate((vm_pm[vm_rows], self.vm_pm[vm_rows]))
        pm_dirty[hosts[hosts >= 0]] = True
        return vm_rows, np.flatnonzero(pm_dirty)

    # ------------------------------------------------------------------ #
    # Legality and move scores
    # ------------------------------------------------------------------ #
    def feasibility(self) -> np.ndarray:
        """The one legality rule: the memoized ``(V, P)`` matrix, True where a
        migration of the row's VM to the column's PM is legal — treat as
        read-only.

        One matrix is kept per view, valid for one version, so every mask
        consumer of a state (the env, the observation builder, HA's steps)
        shares one pass.  When only the version moved, the diff against the
        memo's snapshot names the moved VM rows and dirty PM columns: a cell
        depends on its VM's demand, group and host and on its PM's free
        capacity and hosted groups, so only those columns (all VMs) and rows
        (all PMs) are recomputed, in place.  A new view (``state.copy()``, a
        structural change or a group assignment) starts without a memo, and
        too many mutations for the patch to pay (:data:`_PATCH_PM_DIVISOR`)
        rebuild every cell — through the same block function.
        """
        memo = self._feasibility_memo
        if memo is not None and memo[0] == self.version:
            return memo[1]
        host_counts = None
        group_count = int(self.vm_group.max(initial=-1)) + 1
        if group_count:
            # (groups, num_pms): placed members of each group per PM.
            hosted = (self.vm_group >= 0) & (self.vm_pm >= 0)
            host_counts = np.bincount(
                self.vm_group[hosted] * self.num_pms + self.vm_pm[hosted],
                minlength=group_count * self.num_pms,
            ).reshape(group_count, self.num_pms)
        everything = slice(None)
        # Each mutation dirties at most one PM (a migration: two).
        if memo is not None and (self.version - memo[0]) * _PATCH_PM_DIVISOR <= self.num_pms:
            vm_rows, pm_rows = self.changed_since(memo[2])
            matrix = memo[1]
            matrix[:, pm_rows] = _feasibility_block(self, everything, pm_rows, host_counts)
            matrix[vm_rows] = _feasibility_block(self, vm_rows, everything, host_counts)
        else:
            matrix = _feasibility_block(self, everything, everything, host_counts)
        self._feasibility_memo = (self.version, matrix, self.snapshot())
        return matrix

    def source_deltas(self, vm_rows, x_cores: int) -> np.ndarray:
        """Change of the source PM's X-core fragment if each of ``vm_rows``
        left it (``inf`` for an unplaced VM).

        Replays ``ClusterState.remove_vm``'s release, clamp at capacity
        included; negative means the departure helps.
        """
        pm = self.vm_pm[vm_rows]
        numa = self.vm_numa[vm_rows]
        free = self.numa_free_cpu[pm]
        held = (numa[:, None] == (0, 1)) | (numa[:, None] == BOTH_NUMAS)
        released = np.where(
            held, np.minimum(free + self.vm_cpu_half[vm_rows][:, None], self.numa_cap_cpu[pm]), free
        )
        before = free % x_cores
        after = released % x_cores
        delta = (after[:, 0] + after[:, 1]) - (before[:, 0] + before[:, 1])
        return np.where(pm >= 0, delta, np.inf)

    def placement_scores(self, vm_rows, pm_rows, x_cores: int) -> tuple:
        """Destination side of a move, ``vm_rows`` × ``pm_rows``: ``(delta,
        numa, fits)``.

        ``delta`` is the change of the PM's X-core fragment when the VM lands
        on ``numa``, and ``fits`` whether the VM fits the PM's free capacity
        at all (anti-affinity and the source PM are not consulted).  The NUMA
        rule is best fit: a double-NUMA VM takes both NUMAs; a single-NUMA VM
        takes the NUMA that fits with the least fragment after the move, then
        the one with less free CPU, then NUMA 0.
        """
        free = self.numa_free_cpu[pm_rows]  # (P, 2)
        numa_fits, fits = _fits(self, vm_rows, pm_rows)
        fits0, fits1 = numa_fits[..., 0], numa_fits[..., 1]
        double = self.vm_double[vm_rows][:, None]  # (V, 1)
        before = free % x_cores
        before0, before1 = before[:, 0], before[:, 1]
        landed = (free - self.vm_cpu_half[vm_rows][:, None, None]) % x_cores
        landed0, landed1 = landed[..., 0], landed[..., 1]
        on_one = ~double & prefers_numa_one(fits0, fits1, landed0, landed1, free[:, 0], free[:, 1])
        after = np.where(on_one, before0, landed0) + np.where(double | on_one, landed1, before1)
        numa = np.where(double, BOTH_NUMAS, on_one.astype(np.int64))
        return after - (before0 + before1), numa, fits

    def move_scores(self, vm_rows, x_cores: int) -> tuple:
        """The one move-scoring rule: ``(total, numa)`` for ``vm_rows`` over
        every PM column.

        ``total[i, p]`` is the cluster's X-core fragment change if VM row i
        migrates to PM p, landing on NUMA ``numa[i, p]``: its
        :meth:`source_deltas` plus its :meth:`placement_scores` delta, and
        ``inf`` where :meth:`feasibility` forbids the move.  Negative is a
        gain.
        """
        delta, numa, _ = self.placement_scores(vm_rows, slice(None), x_cores)
        source = self.source_deltas(vm_rows, x_cores)
        return np.where(self.feasibility()[vm_rows], source[:, None] + delta, np.inf), numa


def prefers_numa_one(fits0, fits1, landed0, landed1, free0, free1):
    """The best-fit NUMA rule for a single-NUMA VM, over arrays or numpy
    scalars: NUMA 1 when it fits and NUMA 0 does not, or both fit and NUMA 1
    is left with less X-core fragment (``landed``), or as much and less free
    CPU; NUMA 0 otherwise."""
    return fits1 & (~fits0 | (landed1 < landed0) | ((landed1 == landed0) & (free1 < free0)))


def _merged(rows: np.ndarray, keep, extra: np.ndarray, order) -> np.ndarray:
    """``rows[keep]`` followed by ``extra``, put in ``order`` (``None``: as is)."""
    if keep is not None:
        rows = rows[keep]
    if len(extra):
        rows = np.concatenate((rows, extra))
    return rows if order is None else rows[order]


def _merged_ids(ids: np.ndarray, keep, extra: np.ndarray) -> tuple:
    """The merged ids, sorted, and the order that sorts them (``None`` when
    they already are)."""
    ids = _merged(ids, keep, extra, None)
    if (ids[1:] > ids[:-1]).all():
        return ids, None
    order = np.argsort(ids, kind="stable")
    return ids[order], order


def has_room(free_cpu, free_mem, cpu, mem):
    """The one capacity comparison: whether free CPU and memory hold a
    request, within :data:`~repro.cluster.machine.FEASIBILITY_EPS`.  Takes
    scalars or broadcasting arrays."""
    return (free_cpu + FEASIBILITY_EPS >= cpu) & (free_mem + FEASIBILITY_EPS >= mem)


def _fits(soa: ClusterArrays, vm_rows, pm_rows) -> tuple:
    """Whether ``vm_rows`` fit ``pm_rows``' free capacity: per NUMA
    ``(rows, cols, 2)``, room for the VM's per-NUMA request, and per PM
    ``(rows, cols)``, both NUMAs for a double-NUMA VM and either for a
    single-NUMA one."""
    numa_fits = has_room(
        soa.numa_free_cpu[pm_rows],
        soa.numa_free_mem[pm_rows],
        soa.vm_cpu_half[vm_rows][:, None, None],
        soa.vm_mem_half[vm_rows][:, None, None],
    )
    fits0, fits1 = numa_fits[..., 0], numa_fits[..., 1]
    return numa_fits, np.where(soa.vm_double[vm_rows][:, None], fits0 & fits1, fits0 | fits1)


def _feasibility_block(soa: ClusterArrays, vm_rows, pm_rows, host_counts) -> np.ndarray:
    """Legality of ``vm_rows`` × ``pm_rows`` (row index arrays, or
    ``slice(None)`` for all of them): capacity per NUMA count, anti-affinity
    and source-PM exclusion.  The whole matrix is the block of all rows and
    all columns."""
    block = _fits(soa, vm_rows, pm_rows)[1]

    source = soa.vm_pm[vm_rows]
    block[source < 0] = False  # unplaced VMs have no legal migration

    if host_counts is not None:
        # Any placed member of the VM's group rules a PM out; the VM's own
        # count sits on its source PM, which is excluded below anyway.
        group = soa.vm_group[vm_rows]
        grouped = np.flatnonzero(group >= 0)
        block[grouped] &= host_counts[:, pm_rows][group[grouped]] == 0

    # The source PM is never a destination: find it among the block's columns.
    column = np.full(soa.num_pms, -1, dtype=np.int64)
    column[pm_rows] = np.arange(block.shape[1])
    source_column = np.where(source >= 0, column[source], -1)
    at_home = np.flatnonzero(source_column >= 0)
    block[at_home, source_column[at_home]] = False
    return block


#: A view with no machines: what joins on a change that only drops rows.
_NOTHING = ClusterArrays.empty({}, {})
