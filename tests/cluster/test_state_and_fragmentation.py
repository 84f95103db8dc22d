"""Tests for ClusterState placement bookkeeping and fragment-rate metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FilteringHeuristic, evaluate_plan
from repro.cluster import (
    BOTH_NUMAS,
    ClusterState,
    ConstraintChecker,
    PhysicalMachine,
    Placement,
    PMType,
    VirtualMachine,
    VMType,
    VMTypeCatalog,
)
from repro.cluster.fragmentation import fragment_arrays, fragment_rate_arrays
from repro.env import FragmentRateObjective, MixedFragmentObjective, MixedResourceObjective

CATALOG = VMTypeCatalog.main()


def make_pm(pm_id, cpu=64, memory=256):
    return PhysicalMachine(pm_id=pm_id, pm_type=PMType(f"pm-{cpu}c", cpu=cpu, memory=memory))


def make_vm(vm_id, type_name="xlarge", pm_id=None, numa_id=None, group=None):
    return VirtualMachine(
        vm_id=vm_id,
        vm_type=CATALOG.get(type_name),
        pm_id=pm_id,
        numa_id=numa_id,
        anti_affinity_group=group,
    )


def build_paper_example():
    """The Fig. 2-3 example: PM1 with 12 free cores, PM2 with 20 free cores.

    PM1 (32 cores, 16 per NUMA) hosts a 4-core VM and a 16-core VM, leaving 12
    free cores that are all fragments.  PM2 (64 cores, 32 per NUMA) has one
    NUMA fully packed and 20 free cores on the other, of which 4 are fragments.
    Total: 16 fragmented cores out of 32 free → FR 50%, exactly the paper's
    worked example.  Migrating the 4-core VM to PM2 drops the FR to 0.
    """
    pm1 = make_pm(1, cpu=32, memory=128)
    pm2 = make_pm(2, cpu=64, memory=256)
    vms = [
        make_vm(1, "xlarge", pm_id=1, numa_id=0),     # 4 cores on PM1/NUMA0 -> 12 free
        make_vm(2, "4xlarge", pm_id=1, numa_id=1),    # 16 cores on PM1/NUMA1 -> 0 free
        make_vm(3, "4xlarge", pm_id=2, numa_id=0),    # 16 cores on PM2/NUMA0
        make_vm(4, "4xlarge", pm_id=2, numa_id=0),    # 16 cores on PM2/NUMA0 -> 0 free
        make_vm(5, "2xlarge", pm_id=2, numa_id=1),    # 8 cores on PM2/NUMA1
        make_vm(6, "xlarge", pm_id=2, numa_id=1),     # 4 cores on PM2/NUMA1 -> 20 free
    ]
    return ClusterState(pms=[pm1, pm2], vms=vms)


class TestFragmentMetricsPaperExample:
    def test_initial_fr_is_fifty_percent(self):
        state = build_paper_example()
        assert state.fragment_rate() == pytest.approx(0.5)

    def test_migrating_vm1_to_pm2_reaches_zero_fr(self):
        """Fig. 3: moving the 4-core VM off PM1 leaves 16 free cores on each PM."""
        state = build_paper_example()
        state.migrate_vm(1, dest_pm_id=2)
        assert state.fragment_rate() == pytest.approx(0.0)

    def test_heuristic_finds_the_one_migration_to_zero_fr(self):
        """Figs. 2-3 end to end: HA with an MNL of 1 plans the migration that removes every fragment."""
        state = build_paper_example()
        result = FilteringHeuristic().compute_plan(state, 1)
        assert len(result.plan) == 1
        assert evaluate_plan(state, result).final_objective == pytest.approx(0.0)

    def test_total_fragment_value(self):
        state = build_paper_example()
        assert state.total_fragment() == pytest.approx(16.0)

    def test_pm_fragment_decomposition(self):
        state = build_paper_example()
        assert state.pm_fragment(1) == pytest.approx(12.0)
        assert state.pm_fragment(2) == pytest.approx(4.0)


def one_pm(cpu=64, memory=256, placed=()):
    """PM 0 hosting one VM per ``(numa_id, cpu, memory)`` of ``placed``."""
    vms = [
        VirtualMachine(vm_id=i, vm_type=VMType(f"t{i}", c, m, 1), pm_id=0, numa_id=numa_id)
        for i, (numa_id, c, m) in enumerate(placed)
    ]
    return ClusterState(pms=[make_pm(0, cpu=cpu, memory=memory)], vms=vms)


class TestFragmentationFunctions:
    def test_numa_fragment_modulo(self):
        state = one_pm(placed=[(0, 10, 10)])
        assert fragment_arrays(state.arrays().numa_free_cpu[0, :1], 16) == pytest.approx(22 % 16)
        assert state.pm_fragment(0, 16) == pytest.approx(22 % 16)

    def test_empty_cluster_fr_zero(self):
        assert fragment_rate_arrays(np.zeros((0, 2)), 16) == 0.0

    def test_fully_packed_cluster_fr_zero(self):
        state = one_pm(cpu=32, memory=128, placed=[(0, 16, 32), (1, 16, 32)])
        assert state.fragment_rate(16) == 0.0

    def test_pm_score_uses_reward_scale(self):
        state = one_pm(cpu=32, placed=[(0, 4, 4)])
        # free: 12 and 16 -> fragments 12 + 0 = 12, scaled by 64
        assert FragmentRateObjective(x_cores=16).pm_score(state, 0) == pytest.approx(12 / 64)

    def test_memory_fragment_rate(self):
        state = one_pm(placed=[(0, 4, 100)])
        # free memory: 28 and 128 -> fragments 28 % 64 + 0 = 28 of 156 free
        assert state.memory_fragment_rate(64) == pytest.approx(28 / 156)

    @pytest.mark.parametrize("objective_cls", [MixedFragmentObjective, MixedResourceObjective])
    def test_mixed_objective_bounds_and_validation(self, objective_cls):
        # Eq. 12 is a convex combination of two rates, so it stays in [0, 1],
        # and a lambda outside [0, 1] is refused.
        state = one_pm(placed=[(0, 4, 100), (1, 10, 30)])
        assert 0.0 < objective_cls(weight=0.3).episode_metric(state) <= 1.0
        with pytest.raises(ValueError):
            objective_cls(weight=1.5)
        with pytest.raises(ValueError):
            objective_cls(weight=-0.1)

    def test_invalid_granularity_raises(self):
        with pytest.raises(ValueError):
            fragment_arrays(one_pm().arrays().numa_free_cpu[0], 0)


class TestClusterStatePlacement:
    def test_initial_placement_applied(self):
        state = build_paper_example()
        assert state.vms[1].is_placed
        assert 1 in state.pms[1].numas[0].vm_ids

    def test_place_remove_roundtrip_restores_resources(self):
        state = build_paper_example()
        free_before = state.pms[2].free_cpu
        vm = make_vm(50, "xlarge")
        state.add_vm(vm, Placement(pm_id=2, numa_id=1))
        assert state.pms[2].free_cpu == free_before - 4
        state.remove_vm(50)
        assert state.pms[2].free_cpu == free_before

    def test_double_numa_vm_occupies_both_numas(self):
        pm = make_pm(0, cpu=128, memory=512)
        state = ClusterState(pms=[pm], vms=[])
        vm = make_vm(9, "16xlarge")
        state.add_vm(vm, Placement(pm_id=0, numa_id=BOTH_NUMAS))
        numas = state.pms[0].numas
        assert numas[0].free_cpu == 64 - 32
        assert numas[1].free_cpu == 64 - 32
        assert numas[0].vm_ids == numas[1].vm_ids == {9}

    def test_double_numa_vm_requires_both_numa_target(self):
        pm = make_pm(0, cpu=128, memory=512)
        state = ClusterState(pms=[pm], vms=[])
        vm = make_vm(9, "16xlarge")
        with pytest.raises(ValueError):
            state.add_vm(vm, Placement(pm_id=0, numa_id=0))

    def test_single_numa_vm_rejects_both_numas(self):
        pm = make_pm(0)
        state = ClusterState(pms=[pm], vms=[])
        with pytest.raises(ValueError):
            state.add_vm(make_vm(1, "xlarge"), Placement(pm_id=0, numa_id=BOTH_NUMAS))

    def test_placing_already_placed_vm_raises(self):
        state = build_paper_example()
        with pytest.raises(ValueError):
            state.place_vm(1, Placement(pm_id=2, numa_id=0))

    def test_migrate_to_same_pm_rejected(self):
        state = build_paper_example()
        with pytest.raises(ValueError):
            state.migrate_vm(1, dest_pm_id=1)

    def test_migrate_infeasible_restores_original_placement(self):
        pm1 = make_pm(1, cpu=32, memory=128)
        pm2 = make_pm(2, cpu=32, memory=128)
        blocker = make_vm(10, "4xlarge", pm_id=2, numa_id=0)
        blocker2 = make_vm(11, "4xlarge", pm_id=2, numa_id=1)
        mover = make_vm(12, "4xlarge", pm_id=1, numa_id=0)
        state = ClusterState(pms=[pm1, pm2], vms=[blocker, blocker2, mover])
        with pytest.raises(ValueError):
            state.migrate_vm(12, dest_pm_id=2)
        assert state.vms[12].pm_id == 1
        assert state.pms[1].free_cpu == 32 - 16

    @pytest.mark.parametrize("dest_numa_id", [None, 0])
    def test_migrate_to_unknown_pm_leaves_the_vm_in_place(self, dest_numa_id):
        state = build_paper_example()
        with pytest.raises(KeyError):
            state.migrate_vm(1, dest_pm_id=99, dest_numa_id=dest_numa_id)
        assert state.vms[1].pm_id == 1
        assert state.pms[1].free_cpu == 12

    def test_best_numa_prefers_smallest_resulting_fragment(self):
        pm = make_pm(0, cpu=64, memory=256)  # 32 cores per NUMA
        filler = make_vm(1, "4xlarge", pm_id=0, numa_id=0)  # NUMA0 left with 16
        mover = make_vm(2, "4xlarge", pm_id=1, numa_id=0)
        state = ClusterState(pms=[pm, make_pm(1, cpu=64, memory=256)], vms=[filler, mover])
        # Moving the 16-core VM onto PM0: NUMA0 (16 free) gives fragment 0,
        # NUMA1 (32 free) gives fragment 16 -> best NUMA is 0.
        assert state.best_numa_for(2, 0) == 0

    def test_remove_vm_from_cluster_deletes_vm(self):
        state = build_paper_example()
        state.remove_vm_from_cluster(1)
        assert 1 not in state.vms
        assert 1 not in state.pms[1].numas[0].vm_ids

    def test_copy_is_deep(self):
        state = build_paper_example()
        clone = state.copy()
        clone.migrate_vm(1, dest_pm_id=2)
        assert state.vms[1].pm_id == 1
        assert clone.vms[1].pm_id == 2
        assert state.fragment_rate() == pytest.approx(0.5)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ClusterState(pms=[make_pm(0), make_pm(0)], vms=[])
        with pytest.raises(ValueError):
            ClusterState(pms=[make_pm(0)], vms=[make_vm(1), make_vm(1)])

    def test_to_from_dict_roundtrip(self):
        state = build_paper_example()
        payload = state.to_dict()
        restored = ClusterState.from_dict(payload)
        assert restored.fragment_rate() == pytest.approx(state.fragment_rate())
        assert sorted(restored.vms) == sorted(state.vms)
        assert restored.vms[1].pm_id == state.vms[1].pm_id

    def test_roundtrip_preserves_everything_copy_preserves(self):
        # Requests carry snapshots through to_dict/from_dict: the round trip
        # must preserve the same observable state a copy() does.
        state = build_paper_example()
        state.fragment_cores = 8  # non-default granularity must survive
        restored = ClusterState.from_dict(state.to_dict())
        assert restored.to_dict() == state.to_dict()
        assert restored.fragment_cores == 8
        assert restored.fragment_rate() == pytest.approx(state.fragment_rate())
        for vm_id, vm in state.vms.items():
            other = restored.vms[vm_id]
            assert (other.pm_id, other.numa_id) == (vm.pm_id, vm.numa_id)
            assert other.anti_affinity_group == vm.anti_affinity_group
            assert other.vm_type == vm.vm_type
        soa, restored_soa = state.arrays(), restored.arrays()
        assert (soa.numa_free_cpu == restored_soa.numa_free_cpu).all()
        assert (soa.numa_free_mem == restored_soa.numa_free_mem).all()

    def test_roundtrip_preserves_unplaced_and_double_numa_vms(self):
        pm = make_pm(1, cpu=128, memory=512)
        placed = make_vm(1, "8xlarge", pm_id=1, numa_id=None)  # double-NUMA
        unplaced = make_vm(2, "xlarge")
        state = ClusterState(pms=[pm], vms=[placed, unplaced])
        restored = ClusterState.from_dict(state.to_dict())
        assert restored.vms[1].numa_id == state.vms[1].numa_id  # BOTH_NUMAS marker
        assert not restored.vms[2].is_placed

    @pytest.mark.parametrize(
        "section,field", [("pms", "cpu"), ("pms", "pm_id"), ("vms", "memory"),
                          ("vms", "vm_id"), ("vms", "pm_id"), ("vms", "numa_count")],
    )
    def test_from_dict_rejects_bools_and_fractions(self, section, field):
        for bad in (True, 2.5, float("nan"), "x"):
            payload = build_paper_example().to_dict()
            payload[section][0][field] = bad
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                ClusterState.from_dict(payload)

    @pytest.mark.parametrize("bad", [[1], {"g": 1}, True, 1.0])
    def test_from_dict_rejects_unhashable_or_odd_groups(self, bad):
        payload = build_paper_example().to_dict()
        payload["vms"][0]["anti_affinity_group"] = bad
        with pytest.raises(ValueError, match="anti_affinity_group must be"):
            ClusterState.from_dict(payload)

    @pytest.mark.parametrize("group", [None, 3, "web"])
    def test_from_dict_accepts_int_and_str_groups(self, group):
        payload = build_paper_example().to_dict()
        payload["vms"][0]["anti_affinity_group"] = group
        state = ClusterState.from_dict(payload)
        assert state.vms[payload["vms"][0]["vm_id"]].anti_affinity_group == group
        ConstraintChecker().movable_vm_mask(state)

    def test_from_dict_accepts_integral_floats_and_digit_strings(self):
        state = build_paper_example()
        payload = state.to_dict()
        payload["pms"][0]["cpu"] = float(payload["pms"][0]["cpu"])
        payload["vms"][0]["memory"] = str(payload["vms"][0]["memory"])
        payload["fragment_cores"] = np.int64(payload["fragment_cores"])
        assert ClusterState.from_dict(payload).to_dict() == state.to_dict()

    def test_json_roundtrip(self):
        state = build_paper_example()
        restored = ClusterState.from_json(state.to_json())
        assert restored.to_dict() == state.to_dict()

    def test_cpu_utilization(self):
        state = build_paper_example()
        used = 4 + 16 + 16 + 16 + 8 + 4
        assert state.cpu_utilization() == pytest.approx(used / 96)


class TestAntiAffinity:
    def test_conflicting_pms_detected(self):
        pm1, pm2 = make_pm(1), make_pm(2)
        vm_a = make_vm(1, "xlarge", pm_id=1, numa_id=0, group=0)
        vm_b = make_vm(2, "xlarge", pm_id=2, numa_id=0, group=0)
        vm_c = make_vm(3, "xlarge", pm_id=2, numa_id=1, group=None)
        state = ClusterState(pms=[pm1, pm2], vms=[vm_a, vm_b, vm_c])
        # PM 2 hosts VM 1's group-mate; VM 3 has no group.
        assert state.feasible_numas(1, 2) == []
        assert state.feasible_numas(1, 2, honor_affinity=False) == [0, 1]
        assert state.feasible_numas(3, 1) == [0, 1]

    def test_feasible_destinations_respect_affinity(self):
        pm1, pm2, pm3 = make_pm(1), make_pm(2), make_pm(3)
        vm_a = make_vm(1, "xlarge", pm_id=1, numa_id=0, group=7)
        vm_b = make_vm(2, "xlarge", pm_id=2, numa_id=0, group=7)
        state = ClusterState(pms=[pm1, pm2, pm3], vms=[vm_a, vm_b])
        assert state.feasible_destination_pms(1) == [3]
        assert not state.can_host(1, 2)
        assert state.can_host(1, 2, honor_affinity=False)

    def test_affinity_ratio(self):
        pm1 = make_pm(1, cpu=128, memory=512)
        vms = [make_vm(i, "large", pm_id=1, numa_id=0, group=0 if i < 3 else None) for i in range(6)]
        state = ClusterState(pms=[pm1], vms=vms)
        # 3 VMs conflict pairwise: 3*2 ordered pairs over 6*5 total pairs.
        assert state.affinity_ratio() == pytest.approx(6 / 30)


class TestPropertyBased:
    @given(st.lists(st.sampled_from(["large", "xlarge", "2xlarge", "4xlarge"]), min_size=1, max_size=12),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_free_cpu_plus_used_cpu_equals_capacity(self, type_names, seed):
        """Resource conservation: allocations never create or destroy capacity."""
        rng = np.random.default_rng(seed)
        pms = [make_pm(i, cpu=64, memory=256) for i in range(3)]
        state = ClusterState(pms=pms, vms=[])
        for vm_id, name in enumerate(type_names):
            state.add_vm(make_vm(vm_id, name))
            candidates = [
                (pm_id, numa_id)
                for pm_id in state.pms
                for numa_id in state.feasible_numas(vm_id, pm_id)
            ]
            if not candidates:
                state.remove_vm_from_cluster(vm_id)
                continue
            pm_id, numa_id = candidates[rng.integers(len(candidates))]
            state.place_vm(vm_id, Placement(pm_id=pm_id, numa_id=numa_id))
        total_capacity = sum(pm.cpu_capacity for pm in state.pms.values())
        total_free = sum(pm.free_cpu for pm in state.pms.values())
        total_used = sum(vm.cpu for vm in state.vms.values() if vm.is_placed)
        assert total_free + total_used == pytest.approx(total_capacity)
        assert 0.0 <= state.fragment_rate() <= 1.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_migration_preserves_total_usage_and_fr_bounds(self, seed):
        rng = np.random.default_rng(seed)
        state = build_paper_example()
        used_before = sum(vm.cpu for vm in state.vms.values() if vm.is_placed)
        movable = [vm_id for vm_id in state.vms if state.feasible_destination_pms(vm_id)]
        if movable:
            vm_id = movable[rng.integers(len(movable))]
            dest = state.feasible_destination_pms(vm_id)
            state.migrate_vm(vm_id, dest[rng.integers(len(dest))])
        used_after = sum(vm.cpu for vm in state.vms.values() if vm.is_placed)
        assert used_before == used_after
        assert 0.0 <= state.fragment_rate() <= 1.0
