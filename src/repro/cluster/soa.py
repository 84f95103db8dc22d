"""Structure-of-arrays (SoA) view of a cluster state.

The dict-of-objects representation in :mod:`repro.cluster.state` is the
authoritative bookkeeping, but it makes the per-step hot paths — feasibility
masks over all VMs × PMs, move scoring, featurization, fragment metrics —
interpreter-bound.  :class:`ClusterArrays` mirrors the same information as
contiguous numpy arrays so those paths become broadcast boolean algebra and
sliced array ops.

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
  (``-1`` for no group), numbered in first-seen sorted-VM order
* ``version``           — int, bumped on every placement mutation

The view answers the two questions every planner asks about a move:

* **Is it legal?**  :meth:`ClusterArrays.feasibility` is the one legality
  rule, a memoized ``(V, P)`` matrix (capacity per NUMA count, anti-affinity,
  never the source PM) that every mask, the env's action check and the search
  baselines read.  The memo is patched from the view's own diff
  (:meth:`~ClusterArrays.changed_since` against the snapshot it was built
  from) or rebuilt, through one block function, :func:`_feasibility_block`.
* **What does it do to the fragment?**  :meth:`ClusterArrays.move_scores`
  is the one move-scoring rule: the X-core fragment change of a VM leaving
  its PM (:meth:`~ClusterArrays.source_deltas`) and landing on each PM
  (:meth:`~ClusterArrays.placement_scores`, whose NUMA choice
  ``ClusterState.best_numa_for`` returns).  HA, α-VBPP and MCTS rank moves
  with it instead of probing them by remove/place.

The view keeps no history.  A consumer that patches what it derived from an
earlier state keeps a :meth:`ClusterArrays.snapshot` and asks
:meth:`ClusterArrays.changed_since` which rows moved since.

Sync invariants
---------------
The view is created lazily by :meth:`ClusterState.arrays` and kept
incrementally in sync by ``place_vm`` / ``remove_vm`` (and therefore
``migrate_vm``).  Structural changes — ``add_vm``,
``remove_vm_from_cluster``, or any direct mutation of the ``vms`` dict —
invalidate the view; ``ClusterState.arrays`` detects a stale view by
comparing machine counts and rebuilds it.  Anti-affinity groups are cached
in ``vm_group``: ``ClusterState.set_anti_affinity_group`` drops the view, so
the next access rebuilds it with the new assignment.

Free-resource updates replay the exact float operations of
:meth:`NumaNode.allocate` / :meth:`NumaNode.release`, so the arrays stay
bit-for-bit identical to the object fields, and the move scores equal what
``pm_fragment`` reads after a real remove/place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .machine import BOTH_NUMAS, FEASIBILITY_EPS, VirtualMachine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .state import ClusterState

#: ``vm_numa`` marker for an unplaced VM.
UNPLACED_NUMA = -2

#: The feasibility matrix is patched in place while at most one PM in this
#: many can have been touched since it was built, and rebuilt otherwise.
#: Measured ``movable_vm_mask`` after one migration (two PMs touched), rebuild
#: vs patch: 8 PMs / 85 VMs 88 vs 108 µs, 12 PMs even (140 µs), 16 PMs / 179
#: VMs 209 vs 137 µs, 40 PMs / 335 VMs 733 vs 183 µs, 120 PMs / 1092 VMs
#: 5980 vs 440 µs.
_PATCH_PM_DIVISOR = 8


class ClusterArrays:
    """Contiguous array mirror of one :class:`ClusterState`."""

    __slots__ = (
        "pm_ids",
        "pm_row",
        "numa_free_cpu",
        "numa_free_mem",
        "numa_cap_cpu",
        "numa_cap_mem",
        "vm_ids",
        "vm_row",
        "vm_cpu",
        "vm_mem",
        "vm_cpu_half",
        "vm_mem_half",
        "vm_double",
        "vm_pm",
        "vm_numa",
        "vm_group",
        "version",
        "_feasibility_memo",
    )

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
    def build(cls, state: "ClusterState") -> "ClusterArrays":
        """Materialize the SoA view from the object state."""
        soa = object.__new__(cls)
        soa.version = 0
        soa._feasibility_memo = None
        pm_id_list = state.sorted_pm_ids()
        vm_id_list = state.sorted_vm_ids()
        num_pms = len(pm_id_list)
        num_vms = len(vm_id_list)

        soa.pm_ids = np.asarray(pm_id_list, dtype=np.int64)
        # The id arrays are shared widely (observations, state copies); freeze
        # them so an accidental write cannot corrupt every sharer's ordering.
        soa.pm_ids.flags.writeable = False
        soa.pm_row = {pm_id: row for row, pm_id in enumerate(pm_id_list)}
        soa.numa_free_cpu = np.empty((num_pms, 2), dtype=np.float64)
        soa.numa_free_mem = np.empty((num_pms, 2), dtype=np.float64)
        soa.numa_cap_cpu = np.empty((num_pms, 2), dtype=np.float64)
        soa.numa_cap_mem = np.empty((num_pms, 2), dtype=np.float64)
        for row, pm_id in enumerate(pm_id_list):
            for numa in state.pms[pm_id].numas:
                column = numa.numa_id
                soa.numa_free_cpu[row, column] = numa.free_cpu
                soa.numa_free_mem[row, column] = numa.free_memory
                soa.numa_cap_cpu[row, column] = numa.cpu_capacity
                soa.numa_cap_mem[row, column] = numa.memory_capacity

        soa.vm_ids = np.asarray(vm_id_list, dtype=np.int64)
        soa.vm_ids.flags.writeable = False
        soa.vm_row = {vm_id: row for row, vm_id in enumerate(vm_id_list)}
        soa.vm_cpu = np.empty(num_vms, dtype=np.float64)
        soa.vm_mem = np.empty(num_vms, dtype=np.float64)
        soa.vm_cpu_half = np.empty(num_vms, dtype=np.float64)
        soa.vm_mem_half = np.empty(num_vms, dtype=np.float64)
        soa.vm_double = np.zeros(num_vms, dtype=bool)
        soa.vm_pm = np.full(num_vms, -1, dtype=np.int64)
        soa.vm_numa = np.full(num_vms, UNPLACED_NUMA, dtype=np.int64)
        soa.vm_group = np.full(num_vms, -1, dtype=np.int64)
        group_index = {}
        for row, vm_id in enumerate(vm_id_list):
            vm = state.vms[vm_id]
            soa.vm_cpu[row] = vm.cpu
            soa.vm_mem[row] = vm.memory
            soa.vm_cpu_half[row] = vm.cpu_per_numa
            soa.vm_mem_half[row] = vm.memory_per_numa
            soa.vm_double[row] = vm.numa_count == 2
            if vm.anti_affinity_group is not None:
                soa.vm_group[row] = group_index.setdefault(vm.anti_affinity_group, len(group_index))
            if vm.is_placed:
                soa.vm_pm[row] = soa.pm_row[vm.pm_id]
                soa.vm_numa[row] = vm.numa_id
        return soa

    def copy(self) -> "ClusterArrays":
        """O(arrays) snapshot; immutable id/capacity arrays are shared."""
        clone = object.__new__(ClusterArrays)
        clone.pm_ids = self.pm_ids
        clone.pm_row = self.pm_row
        clone.numa_cap_cpu = self.numa_cap_cpu
        clone.numa_cap_mem = self.numa_cap_mem
        clone.numa_free_cpu = self.numa_free_cpu.copy()
        clone.numa_free_mem = self.numa_free_mem.copy()
        clone.vm_ids = self.vm_ids
        clone.vm_row = self.vm_row
        clone.vm_cpu = self.vm_cpu
        clone.vm_mem = self.vm_mem
        clone.vm_cpu_half = self.vm_cpu_half
        clone.vm_mem_half = self.vm_mem_half
        clone.vm_double = self.vm_double
        clone.vm_group = self.vm_group
        clone.vm_pm = self.vm_pm.copy()
        clone.vm_numa = self.vm_numa.copy()
        # Consumers key their caches on the view's identity, so a clone never
        # satisfies a cache built against the original (and vice versa).
        clone.version = self.version
        clone._feasibility_memo = None
        return clone

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

        Replays :meth:`NumaNode.release`, clamp included, as
        :meth:`apply_remove` does; negative means the departure helps.
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
        on_one = fits1 & ~double & (
            ~fits0 | (landed1 < landed0) | ((landed1 == landed0) & (free[:, 1] < free[:, 0]))
        )
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

    # ------------------------------------------------------------------ #
    # Incremental sync (driven by ClusterState mutations)
    # ------------------------------------------------------------------ #
    def apply_place(self, vm: VirtualMachine) -> bool:
        """Mirror a successful ``place_vm``; False if the VM is unknown."""
        row = self.vm_row.get(vm.vm_id)
        pm_row = self.pm_row.get(vm.pm_id)
        if row is None or pm_row is None:
            return False
        if vm.numa_id == BOTH_NUMAS:
            self.numa_free_cpu[pm_row, :] -= self.vm_cpu_half[row]
            self.numa_free_mem[pm_row, :] -= self.vm_mem_half[row]
        else:
            self.numa_free_cpu[pm_row, vm.numa_id] -= self.vm_cpu[row]
            self.numa_free_mem[pm_row, vm.numa_id] -= self.vm_mem[row]
        self.vm_pm[row] = pm_row
        self.vm_numa[row] = vm.numa_id
        self.version += 1
        return True

    def apply_remove(self, vm_id: int, pm_id: int, numa_id: int) -> bool:
        """Mirror a successful ``remove_vm``; False if the VM is unknown."""
        row = self.vm_row.get(vm_id)
        pm_row = self.pm_row.get(pm_id)
        if row is None or pm_row is None:
            return False
        # Replay NumaNode.release exactly: min(free + released, capacity).
        if numa_id == BOTH_NUMAS:
            np.minimum(
                self.numa_free_cpu[pm_row, :] + self.vm_cpu_half[row],
                self.numa_cap_cpu[pm_row, :],
                out=self.numa_free_cpu[pm_row, :],
            )
            np.minimum(
                self.numa_free_mem[pm_row, :] + self.vm_mem_half[row],
                self.numa_cap_mem[pm_row, :],
                out=self.numa_free_mem[pm_row, :],
            )
        else:
            self.numa_free_cpu[pm_row, numa_id] = min(
                self.numa_free_cpu[pm_row, numa_id] + self.vm_cpu[row],
                self.numa_cap_cpu[pm_row, numa_id],
            )
            self.numa_free_mem[pm_row, numa_id] = min(
                self.numa_free_mem[pm_row, numa_id] + self.vm_mem[row],
                self.numa_cap_mem[pm_row, numa_id],
            )
        self.vm_pm[row] = -1
        self.vm_numa[row] = UNPLACED_NUMA
        self.version += 1
        return True

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def matches(self, state: "ClusterState") -> bool:
        """Cheap staleness probe: machine counts still line up."""
        return self.num_vms == len(state.vms) and self.num_pms == len(state.pms)

    def assert_in_sync(self, state: "ClusterState") -> None:
        """Exact comparison against the object state (test helper)."""
        fresh = ClusterArrays.build(state)
        np.testing.assert_array_equal(self.pm_ids, fresh.pm_ids)
        np.testing.assert_array_equal(self.vm_ids, fresh.vm_ids)
        np.testing.assert_array_equal(self.numa_free_cpu, fresh.numa_free_cpu)
        np.testing.assert_array_equal(self.numa_free_mem, fresh.numa_free_mem)
        np.testing.assert_array_equal(self.vm_pm, fresh.vm_pm)
        np.testing.assert_array_equal(self.vm_numa, fresh.vm_numa)
        np.testing.assert_array_equal(self.vm_group, fresh.vm_group)


def _fits(soa: ClusterArrays, vm_rows, pm_rows) -> tuple:
    """Whether ``vm_rows`` fit ``pm_rows``' free capacity: per NUMA
    ``(rows, cols, 2)``, room for the VM's per-NUMA request (the comparison of
    :meth:`NumaNode.can_host`), and per PM ``(rows, cols)``, both NUMAs for a
    double-NUMA VM and either for a single-NUMA one."""
    eps = FEASIBILITY_EPS
    numa_fits = (
        (soa.numa_free_cpu[pm_rows] + eps >= soa.vm_cpu_half[vm_rows][:, None, None])
        & (soa.numa_free_mem[pm_rows] + eps >= soa.vm_mem_half[vm_rows][:, None, None])
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
