"""The SoA view's measured dirty sets, and copies that never see each other's mutations."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterState,
    ConstraintChecker,
    PhysicalMachine,
    Placement,
    PMType,
    VirtualMachine,
    VMTypeCatalog,
)
from repro.datasets import ClusterSpec, SnapshotGenerator

from oracles import assert_recounted


def _state(num_pms=10, seed=0):
    spec = ClusterSpec(
        name="cow", num_pms=num_pms, target_utilization=0.8, best_fit_fraction=0.3
    )
    return SnapshotGenerator(spec, seed=seed).generate()


def _first_move(state):
    checker = ConstraintChecker()
    for vm_id in state.placed_vm_ids():
        mask = checker.destination_mask(state, vm_id)
        if mask.any():
            return vm_id, int(state.arrays().pm_ids[np.flatnonzero(mask)[0]])
    pytest.skip("no feasible migration in generated state")


class TestChangedSince:
    def test_migration_marks_both_endpoints(self):
        state = _state()
        soa = state.arrays()
        snapshot = soa.snapshot()
        vm_id, dest_pm = _first_move(state)
        source_row = int(soa.vm_pm[soa.vm_row[vm_id]])
        state.migrate_vm(vm_id, dest_pm)
        vm_rows, pm_rows = soa.changed_since(snapshot)
        assert vm_rows.tolist() == [soa.vm_row[vm_id]]
        assert pm_rows.tolist() == sorted({source_row, soa.pm_row[dest_pm]})

    def test_copy_diffs_independently(self):
        state = _state()
        soa = state.arrays()
        snapshot = soa.snapshot()
        clone = state.copy()
        vm_id, dest_pm = _first_move(clone)
        clone.migrate_vm(vm_id, dest_pm)
        # The original's view saw nothing; the clone's own view moved.
        vm_rows, pm_rows = soa.changed_since(snapshot)
        assert vm_rows.size == 0 and pm_rows.size == 0
        vm_rows, pm_rows = clone.arrays().changed_since(snapshot)
        assert vm_rows.tolist() == [soa.vm_row[vm_id]] and pm_rows.size == 2


    def test_numa_switch_on_the_same_pm_marks_only_that_pm(self):
        state = _hand_built()
        soa = state.arrays()
        snapshot = soa.snapshot()
        state.migrate_vm(0, 2, dest_numa_id=0)
        state.migrate_vm(0, 0, dest_numa_id=1)
        vm_rows, pm_rows = soa.changed_since(snapshot)
        assert vm_rows.size == 0 and pm_rows.tolist() == [0]

    def test_swap_of_equal_vms_marks_both_hosts(self):
        """Two equal VMs trade hosts: no free capacity moved, yet both hosts
        count, since what they host (and so its anti-affinity groups) did."""
        state = _hand_built()
        soa = state.arrays()
        snapshot = soa.snapshot()
        state.migrate_vm(0, 2, dest_numa_id=0)
        state.migrate_vm(1, 0, dest_numa_id=0)
        state.migrate_vm(0, 1, dest_numa_id=0)
        np.testing.assert_array_equal(soa.numa_free_cpu, snapshot[1])
        vm_rows, pm_rows = soa.changed_since(snapshot)
        assert vm_rows.tolist() == [0, 1] and pm_rows.tolist() == [0, 1]


def _hand_built():
    """Three 64-core PMs; two equal VMs on NUMA 0 of PMs 0 and 1."""
    pms = [PhysicalMachine(pm_id=i, pm_type=PMType("pm64", cpu=64, memory=256)) for i in range(3)]
    state = ClusterState(pms=pms, vms=[])
    vm_type = VMTypeCatalog.main().get("xlarge")
    for vm_id in (0, 1):
        state.add_vm(VirtualMachine(vm_id=vm_id, vm_type=vm_type), Placement(pm_id=vm_id, numa_id=0))
    return state


class TestCopyOnWrite:
    def test_clone_mutation_leaves_original_intact(self):
        state = _state()
        clone = state.copy()
        vm_id, dest_pm = _first_move(clone)
        before = state.vms[vm_id].pm_id
        clone.migrate_vm(vm_id, dest_pm)
        assert state.vms[vm_id].pm_id == before
        assert clone.vms[vm_id].pm_id == dest_pm
        assert_recounted(state)
        assert_recounted(clone)

    def test_original_mutation_leaves_clone_intact(self):
        state = _state(seed=1)
        clone = state.copy()
        vm_id, dest_pm = _first_move(state)
        before = clone.vms[vm_id].pm_id
        state.migrate_vm(vm_id, dest_pm)
        assert clone.vms[vm_id].pm_id == before
        assert_recounted(clone)
        assert_recounted(state)

    def test_chained_copies(self):
        state = _state(seed=2)
        first = state.copy()
        vm_id, dest_pm = _first_move(first)
        first.migrate_vm(vm_id, dest_pm)
        second = first.copy()
        source_pm = int(second.vms[vm_id].pm_id)
        # Migrate back in the grandchild; parent and grandparent unaffected.
        back_to = int(state.vms[vm_id].pm_id)
        if second.can_host(vm_id, back_to):
            second.migrate_vm(vm_id, back_to)
            assert first.vms[vm_id].pm_id == source_pm
        for s in (state, first, second):
            assert_recounted(s)

    def test_set_anti_affinity_group_is_cow_safe(self):
        state = _state(seed=3)
        clone = state.copy()
        vm_id = state.placed_vm_ids()[0]
        clone.set_anti_affinity_group(vm_id, 7)
        assert state.vms[vm_id].anti_affinity_group is None
        assert clone.vms[vm_id].anti_affinity_group == 7

    def test_round_trip_survives_cow(self):
        state = _state(seed=4)
        clone = state.copy()
        vm_id, dest_pm = _first_move(clone)
        clone.migrate_vm(vm_id, dest_pm)
        restored = ClusterState.from_dict(clone.to_dict())
        assert restored.vms[vm_id].pm_id == dest_pm
        assert restored.fragment_rate() == pytest.approx(clone.fragment_rate())
