"""Tests for constraint checking, migration plans and dynamic events."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterState,
    ConstraintChecker,
    ConstraintConfig,
    EventGenerator,
    LiveMigrationCostModel,
    Migration,
    MigrationPlan,
    PhysicalMachine,
    Placement,
    PMType,
    VirtualMachine,
    VMTypeCatalog,
    apply_plan,
    assign_anti_affinity_groups,
    best_fit_placement,
    diurnal_rate_profile,
    sample_daily_changes,
)
from repro.sim import LivingCluster

CATALOG = VMTypeCatalog.main()


def make_cluster(num_pms=4, cpu=64, memory=256):
    pms = [PhysicalMachine(pm_id=i, pm_type=PMType(f"pm{cpu}", cpu=cpu, memory=memory)) for i in range(num_pms)]
    return ClusterState(pms=pms, vms=[])


def add_vm(state, vm_id, type_name, pm_id, numa_id, group=None):
    vm = VirtualMachine(vm_id=vm_id, vm_type=CATALOG.get(type_name), anti_affinity_group=group)
    state.add_vm(vm, Placement(pm_id=pm_id, numa_id=numa_id))
    return vm


@pytest.fixture
def small_state():
    state = make_cluster(num_pms=3)
    add_vm(state, 0, "4xlarge", pm_id=0, numa_id=0)
    add_vm(state, 1, "2xlarge", pm_id=0, numa_id=1)
    add_vm(state, 2, "xlarge", pm_id=1, numa_id=0)
    return state


class TestConstraintConfig:
    def test_invalid_mnl_rejected(self):
        with pytest.raises(ValueError):
            ConstraintConfig(migration_limit=0)

    def test_defaults(self):
        config = ConstraintConfig()
        assert config.migration_limit == 50
        assert config.honor_anti_affinity


class TestConstraintChecker:
    def test_feasible_migration(self, small_state):
        checker = ConstraintChecker()
        assert checker.migration_is_feasible(small_state, 0, 2)

    def test_source_pm_not_a_destination(self, small_state):
        checker = ConstraintChecker()
        assert not checker.migration_is_feasible(small_state, 0, 0)
        relaxed = ConstraintChecker(ConstraintConfig(allow_source_pm=True))
        assert relaxed.migration_is_feasible(small_state, 0, 0)

    def test_unknown_vm_or_pm(self, small_state):
        checker = ConstraintChecker()
        assert not checker.migration_is_feasible(small_state, 99, 1)
        assert not checker.migration_is_feasible(small_state, 0, 99)

    @staticmethod
    def assert_rejected(checker, state, vm_id, pm_id):
        """Every legality path says no: the per-action check, the stage-2
        mask row and the memoized matrix."""
        assert not checker.migration_is_feasible(state, vm_id, pm_id)
        assert not checker.destination_mask(state, vm_id, [pm_id])[0]
        column = sorted(state.pms).index(pm_id)
        row = state.sorted_vm_ids().index(vm_id)
        assert not checker.feasibility_matrix(state)[row, column]

    def test_capacity_violation_rejected(self):
        state = make_cluster(num_pms=2, cpu=32, memory=64)
        add_vm(state, 0, "4xlarge", pm_id=0, numa_id=0)
        add_vm(state, 1, "4xlarge", pm_id=1, numa_id=0)
        add_vm(state, 2, "4xlarge", pm_id=1, numa_id=1)
        self.assert_rejected(ConstraintChecker(), state, 0, 1)

    def test_memory_only_violation_rejected(self):
        state = make_cluster(num_pms=2, cpu=256, memory=64)
        add_vm(state, 0, "4xlarge", pm_id=0, numa_id=0)   # needs 32 GB
        add_vm(state, 1, "2xlarge", pm_id=1, numa_id=0)   # uses 16 GB of 32 per NUMA
        add_vm(state, 2, "2xlarge", pm_id=1, numa_id=1)
        vm = state.vms[0]
        numas = state.pms[1].numas
        # CPU alone would fit on either NUMA; memory (Eq. 3) is what says no.
        assert all(numa.free_cpu >= vm.cpu for numa in numas)
        assert all(numa.free_memory < vm.memory for numa in numas)
        self.assert_rejected(ConstraintChecker(), state, 0, 1)

    def test_anti_affinity_violation(self, small_state):
        small_state.vms[0].anti_affinity_group = 5
        small_state.vms[2].anti_affinity_group = 5
        self.assert_rejected(ConstraintChecker(), small_state, 0, 1)
        relaxed = ConstraintChecker(ConstraintConfig(honor_anti_affinity=False))
        assert relaxed.migration_is_feasible(small_state, 0, 1)
        assert relaxed.destination_mask(small_state, 0, [1])[0]

    def test_destination_mask_matches_feasibility(self, small_state):
        checker = ConstraintChecker()
        mask = checker.destination_mask(small_state, 0)
        pm_ids = sorted(small_state.pms)
        for index, pm_id in enumerate(pm_ids):
            assert mask[index] == checker.migration_is_feasible(small_state, 0, pm_id)

    def test_movable_vm_mask(self, small_state):
        checker = ConstraintChecker()
        mask = checker.movable_vm_mask(small_state)
        assert mask.shape == (3,)
        assert mask.all()  # plenty of space everywhere

    def test_plan_replay_sees_freed_capacity(self):
        """A later step may rely on space freed by an earlier step."""
        state = make_cluster(num_pms=2, cpu=32, memory=128)
        add_vm(state, 0, "4xlarge", pm_id=0, numa_id=0)
        add_vm(state, 2, "4xlarge", pm_id=1, numa_id=0)
        add_vm(state, 3, "4xlarge", pm_id=1, numa_id=1)
        checker = ConstraintChecker()
        assert not checker.migration_is_feasible(state, 0, 1)  # PM1 is full
        # VM 2 leaves PM1 first, so VM 0 fits into the NUMA it freed.
        plan = MigrationPlan.from_pairs([(2, 0), (0, 1)])
        after, result = apply_plan(state, plan, skip_infeasible=False)
        assert len(result.applied) == 2 and not result.skipped
        assert after.vms[0].pm_id == 1 and after.vms[2].pm_id == 0
        # The other order asks VM 0 onto the still-full PM1.
        with pytest.raises(ValueError, match="infeasible"):
            apply_plan(state, MigrationPlan.from_pairs([(0, 1), (2, 0)]), skip_infeasible=False)
        _, result = apply_plan(state, MigrationPlan.from_pairs([(0, 1), (2, 0)]))
        assert [m.vm_id for m in result.skipped] == [0]
        assert [m.vm_id for m in result.applied] == [2]


class TestAffinityGroupSynthesis:
    def test_groups_assigned(self):
        state = make_cluster(num_pms=4, cpu=256, memory=1024)
        for vm_id in range(12):
            add_vm(state, vm_id, "large", pm_id=vm_id % 4, numa_id=vm_id % 2)
        rng = np.random.default_rng(0)
        groups = assign_anti_affinity_groups(state, group_count=2, vms_per_group=3, rng=rng)
        assert len(groups) == 2
        assert all(len(members) == 3 for members in groups.values())
        assert state.affinity_ratio() > 0

    def test_too_many_groups_rejected(self):
        state = make_cluster()
        add_vm(state, 0, "large", 0, 0)
        with pytest.raises(ValueError):
            assign_anti_affinity_groups(state, 2, 2, np.random.default_rng(0))


class TestMigrationPlan:
    def test_plan_construction_helpers(self):
        plan = MigrationPlan.from_pairs([(1, 2), (3, 4)])
        assert len(plan) == 2
        assert plan.vm_ids() == [1, 3]
        assert plan.truncated(1).vm_ids() == [1]

    def test_apply_plan_reduces_fr(self, small_state):
        initial_fr = small_state.fragment_rate()
        plan = MigrationPlan([Migration(vm_id=2, dest_pm_id=0)])
        new_state, result = apply_plan(small_state, plan)
        assert result.num_applied == 1
        assert small_state.vms[2].pm_id == 1  # original untouched
        assert new_state.vms[2].pm_id == 0
        assert result.initial_fragment_rate == pytest.approx(initial_fr)

    def test_apply_plan_skips_stale_steps(self, small_state):
        plan = MigrationPlan([Migration(vm_id=99, dest_pm_id=0), Migration(vm_id=2, dest_pm_id=0)])
        _, result = apply_plan(small_state, plan, skip_infeasible=True)
        assert len(result.skipped) == 1
        assert len(result.applied) == 1

    def test_apply_plan_strict_raises(self, small_state):
        plan = MigrationPlan([Migration(vm_id=99, dest_pm_id=0)])
        with pytest.raises(ValueError):
            apply_plan(small_state, plan, skip_infeasible=False)

    def test_apply_plan_skips_infeasible_explicit_numa(self, small_state):
        # The PM can host VM 2 but the explicitly-requested NUMA cannot
        # (planners that unpack-then-repack can emit such stale targets).
        dest_pm = small_state.pms[0]
        dest_numa = dest_pm.numas[0]
        filler_cpu = dest_numa.free_cpu  # leave NUMA 0 with zero free CPU
        from repro.cluster import Placement, PMType, VirtualMachine, VMType

        if filler_cpu > 0:
            filler = VirtualMachine(
                vm_id=500,
                vm_type=VMType("filler", cpu=int(filler_cpu), memory=1, numa_count=1),
            )
            small_state.add_vm(filler, Placement(pm_id=0, numa_id=0))
        plan = MigrationPlan([Migration(vm_id=2, dest_pm_id=0, dest_numa_id=0)])
        new_state, result = apply_plan(small_state, plan, skip_infeasible=True)
        assert len(result.skipped) == 1
        assert new_state.vms[2].pm_id == small_state.vms[2].pm_id  # still on source
        with pytest.raises(ValueError):
            apply_plan(small_state, plan, skip_infeasible=False)

    def test_apply_plan_in_place(self, small_state):
        plan = MigrationPlan([Migration(vm_id=2, dest_pm_id=0)])
        new_state, _ = apply_plan(small_state, plan, in_place=True)
        assert new_state is small_state
        assert small_state.vms[2].pm_id == 0


class TestLiveMigrationCostModel:
    def test_migration_time_increases_with_memory(self):
        model = LiveMigrationCostModel()
        assert model.migration_seconds(128) > model.migration_seconds(8)

    def test_downtime_below_total_time(self):
        model = LiveMigrationCostModel()
        assert model.downtime_seconds(64) < model.migration_seconds(64)

    def test_invalid_memory_rejected(self):
        with pytest.raises(ValueError):
            LiveMigrationCostModel().migration_seconds(0)

    def test_plan_cost_parallelism(self, small_state):
        model = LiveMigrationCostModel()
        plan = MigrationPlan([Migration(vm_id=0, dest_pm_id=2), Migration(vm_id=1, dest_pm_id=2)])
        serial = model.plan_cost(small_state, plan, parallelism=1)
        parallel = model.plan_cost(small_state, plan, parallelism=2)
        assert parallel["makespan_seconds"] <= serial["makespan_seconds"]
        assert serial["num_migrations"] == 2
        with pytest.raises(ValueError):
            model.plan_cost(small_state, plan, parallelism=0)


class TestEvents:
    def test_diurnal_profile_shape(self):
        profile = diurnal_rate_profile(peak_per_minute=80, trough_per_minute=6)
        assert profile.shape == (24 * 60,)
        assert profile.max() == pytest.approx(80, rel=1e-6)
        assert profile.min() == pytest.approx(6, rel=1e-6)

    def test_diurnal_profile_peak_must_exceed_trough(self):
        with pytest.raises(ValueError):
            diurnal_rate_profile(5, 10)

    def test_sample_daily_changes_counts(self):
        rng = np.random.default_rng(0)
        day = sample_daily_changes(rng)
        assert day["arrivals"].shape == (24 * 60,)
        np.testing.assert_array_equal(day["arrivals"] + day["exits"], day["total"])

    def test_event_generator_produces_sorted_mixed_events(self, small_state):
        generator = EventGenerator(changes_per_minute=120, rng=np.random.default_rng(1))
        events = generator.generate(horizon_s=60.0, state=small_state)
        assert events, "expected events at 2 changes per second over a minute"
        times = [e.time_s for e in events]
        assert times == sorted(times)
        kinds = {e.kind for e in events}
        assert kinds <= {"arrival", "exit"}

    def test_living_cluster_updates_state(self, small_state):
        generator = EventGenerator(changes_per_minute=240, rng=np.random.default_rng(2))
        events = generator.generate(horizon_s=120.0, state=small_state)
        before_vm_count = small_state.num_vms
        stats = LivingCluster(small_state, events, seed=3).advance(120.0)
        assert stats["arrivals"] + stats["exits"] + stats["failed_arrivals"] > 0
        assert small_state.num_vms == before_vm_count + stats["arrivals"] - stats["exits"]

    def test_best_fit_placement_prefers_fragment_reduction(self):
        state = make_cluster(num_pms=2, cpu=64, memory=256)
        # PM0 NUMA0 has exactly 16 free after hosting a 4xlarge; PM1 empty.
        add_vm(state, 0, "4xlarge", pm_id=0, numa_id=0)
        vm = VirtualMachine(vm_id=10, vm_type=CATALOG.get("4xlarge"))
        placement = best_fit_placement(state, vm)
        assert placement is not None
        assert placement.pm_id == 0 and placement.numa_id == 0

    def test_best_fit_placement_none_when_full(self):
        state = make_cluster(num_pms=1, cpu=32, memory=64)
        add_vm(state, 0, "4xlarge", pm_id=0, numa_id=0)
        add_vm(state, 1, "4xlarge", pm_id=0, numa_id=1)
        vm = VirtualMachine(vm_id=10, vm_type=CATALOG.get("4xlarge"))
        assert best_fit_placement(state, vm) is None
