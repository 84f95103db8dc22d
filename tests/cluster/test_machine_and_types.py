"""Tests for VM/PM type catalogs, machine snapshots and NUMA accounting."""

import pytest

from repro.cluster import (
    BOTH_NUMAS,
    ClusterState,
    PhysicalMachine,
    Placement,
    PMType,
    TABLE1_VM_TYPES,
    VirtualMachine,
    VMType,
    VMTypeCatalog,
)
from repro.cluster.vm_types import DEFAULT_PM_TYPE, MULTI_RESOURCE_PM_TYPES


class TestVMTypes:
    def test_table1_matches_paper(self):
        """Table 1: names, CPU, memory (1:2 ratio) and NUMA placement."""
        expected = {
            "large": (2, 4, 1),
            "xlarge": (4, 8, 1),
            "2xlarge": (8, 16, 1),
            "4xlarge": (16, 32, 1),
            "8xlarge": (32, 64, 2),
            "16xlarge": (64, 128, 2),
            "22xlarge": (88, 176, 2),
        }
        catalog = {t.name: t for t in TABLE1_VM_TYPES}
        assert set(catalog) == set(expected)
        for name, (cpu, memory, numa) in expected.items():
            assert catalog[name].cpu == cpu
            assert catalog[name].memory == memory
            assert catalog[name].numa_count == numa

    def test_cpu_memory_ratio_is_one_to_two(self):
        for vm_type in TABLE1_VM_TYPES:
            assert vm_type.memory == 2 * vm_type.cpu

    def test_per_numa_split_for_double_numa(self):
        vm_type = VMType("16xlarge", 64, 128, 2)
        assert vm_type.cpu_per_numa == 32
        assert vm_type.memory_per_numa == 64

    def test_invalid_numa_count_rejected(self):
        with pytest.raises(ValueError):
            VMType("bad", 4, 8, 3)

    def test_double_numa_must_split_evenly(self):
        with pytest.raises(ValueError):
            VMType("bad", 5, 8, 2)

    def test_nonpositive_resources_rejected(self):
        with pytest.raises(ValueError):
            VMType("bad", 0, 8, 1)

    def test_catalog_lookup_and_errors(self):
        catalog = VMTypeCatalog.main()
        assert catalog.get("4xlarge").cpu == 16
        assert "4xlarge" in catalog
        with pytest.raises(KeyError):
            catalog.get("9000xlarge")

    def test_multi_resource_catalog_has_memory_boosted_types(self):
        catalog = VMTypeCatalog.multi_resource()
        boosted = catalog.get("xlarge-mem8")
        assert boosted.memory == 8 * boosted.cpu  # 1:8 ratio as in §5.4

    def test_catalog_rejects_duplicates(self):
        with pytest.raises(ValueError):
            VMTypeCatalog((VMType("a", 2, 4, 1), VMType("a", 2, 4, 1)))


class TestPMTypes:
    def test_multi_resource_pm_types_match_section_5_4(self):
        by_name = {t.name: t for t in MULTI_RESOURCE_PM_TYPES}
        assert by_name["pm-88c-256g"].cpu == 88
        assert by_name["pm-88c-256g"].memory == 256
        assert by_name["pm-128c-364g"].cpu == 128
        assert by_name["pm-128c-364g"].memory == 364

    def test_capacity_split_across_numas(self):
        assert DEFAULT_PM_TYPE.cpu_per_numa == DEFAULT_PM_TYPE.cpu // 2

    def test_odd_capacity_rejected(self):
        with pytest.raises(ValueError):
            PMType("odd", cpu=7, memory=16)


def _one_pm_state(cpu: int, memory: int, *vm_types: VMType) -> ClusterState:
    """One PM (id 0) and unplaced VMs 1, 2, ... of ``vm_types``."""
    return ClusterState(
        pms=[PhysicalMachine(pm_id=0, pm_type=PMType("t", cpu=cpu, memory=memory))],
        vms=[VirtualMachine(vm_id=i, vm_type=t) for i, t in enumerate(vm_types, start=1)],
    )


class TestNumaNode:
    """NUMA accounting, read through the state's PM snapshots."""

    def test_allocation_and_release(self):
        state = _one_pm_state(128, 512, VMType("v", 16, 32, 1))
        state.place_vm(1, Placement(pm_id=0, numa_id=0))
        numa = state.pms[0].numas[0]
        assert numa.free_cpu == 48
        assert numa.free_memory == 224
        assert numa.used_cpu == 16
        assert numa.vm_ids == {1}
        state.remove_vm(1)
        numa = state.pms[0].numas[0]
        assert numa.free_cpu == 64
        assert 1 not in numa.vm_ids

    def test_over_allocation_rejected(self):
        state = _one_pm_state(32, 64, VMType("v", 32, 16, 1))
        with pytest.raises(ValueError, match="cannot host"):
            state.place_vm(1, Placement(pm_id=0, numa_id=0))
        assert state.pms[0].numas[0].free_cpu == 16

    def test_double_allocation_of_same_vm_rejected(self):
        state = _one_pm_state(128, 512, VMType("v", 4, 8, 1))
        state.place_vm(1, Placement(pm_id=0, numa_id=0))
        with pytest.raises(ValueError, match="already placed"):
            state.place_vm(1, Placement(pm_id=0, numa_id=0))

    def test_release_unknown_vm_rejected(self):
        state = _one_pm_state(128, 512, VMType("v", 4, 8, 1))
        with pytest.raises(ValueError, match="not placed"):
            state.remove_vm(1)

    def test_copy_is_independent(self):
        state = _one_pm_state(128, 512, VMType("v", 4, 8, 1))
        state.place_vm(1, Placement(pm_id=0, numa_id=0))
        clone = state.copy()
        clone.remove_vm(1)
        assert state.pms[0].numas[0].free_cpu == 60
        assert clone.pms[0].numas[0].free_cpu == 64


class TestPhysicalMachine:
    def test_pm_builds_two_numas(self):
        pm = PhysicalMachine(pm_id=3, pm_type=DEFAULT_PM_TYPE)
        assert len(pm.numas) == 2
        assert pm.cpu_capacity == DEFAULT_PM_TYPE.cpu
        assert pm.free_cpu == DEFAULT_PM_TYPE.cpu

    def test_utilization_and_vm_ids(self):
        state = _one_pm_state(32, 64, VMType("v", 8, 16, 1))
        state.place_vm(1, Placement(pm_id=0, numa_id=0))
        pm = state.pms[0]
        assert pm.cpu_utilization == pytest.approx(0.25)
        assert pm.vm_ids == {1}

    def test_copy_preserves_allocations(self):
        state = _one_pm_state(32, 64, VMType("v", 4, 8, 1))
        state.place_vm(1, Placement(pm_id=0, numa_id=1))
        clone = state.copy()
        assert clone.pms[0].numas[1].free_cpu == state.pms[0].numas[1].free_cpu
        clone.remove_vm(1)
        assert state.pms[0].numas[1].free_cpu == 12

    def test_snapshots_are_read_only_copies(self):
        """Writing a snapshot's fields changes nothing in the state."""
        state = _one_pm_state(32, 64, VMType("v", 4, 8, 1))
        state.place_vm(1, Placement(pm_id=0, numa_id=1))
        state.pms[0].numas[1].free_cpu = 0.0
        state.vms[1].pm_id = None
        assert state.pms[0].numas[1].free_cpu == 12
        assert state.vms[1].pm_id == 0
        with pytest.raises(TypeError):
            state.vms[2] = VirtualMachine(vm_id=2, vm_type=VMType("v", 4, 8, 1))


class TestVirtualMachine:
    def test_numa_ids_on_pm(self):
        vm = VirtualMachine(vm_id=0, vm_type=VMType("16xlarge", 64, 128, 2), pm_id=1, numa_id=BOTH_NUMAS)
        assert vm.numa_ids_on_pm() == (0, 1)
        single = VirtualMachine(vm_id=1, vm_type=VMType("xlarge", 4, 8, 1), pm_id=1, numa_id=1)
        assert single.numa_ids_on_pm() == (1,)

    def test_unplaced_vm_raises(self):
        vm = VirtualMachine(vm_id=0, vm_type=VMType("xlarge", 4, 8, 1))
        assert not vm.is_placed
        with pytest.raises(RuntimeError):
            vm.numa_ids_on_pm()
