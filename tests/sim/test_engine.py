"""LivingCluster engine: event semantics, PM lifecycle, SoA/journal exactness."""

import pytest

from repro.cluster import ClusterEvent, PhysicalMachine
from repro.cluster.vm_types import DEFAULT_PM_TYPE, PMType
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.sim import ChurnSpec, LivingCluster, SyntheticTrace

DAY_S = 86400.0


def small_state(seed=0, num_pms=6, utilization=0.6):
    spec = ClusterSpec(num_pms=num_pms, target_utilization=utilization,
                       best_fit_fraction=0.3)
    return SnapshotGenerator(spec, seed=seed).generate()


class TestPmLifecycleStateMethods:
    def test_add_pm(self):
        state = small_state()
        before = state.num_pms
        new_id = max(state.pms) + 1
        state.add_pm(PhysicalMachine(pm_id=new_id, pm_type=DEFAULT_PM_TYPE))
        assert state.num_pms == before + 1
        assert not state.pms[new_id].vm_ids
        state.arrays().assert_in_sync(state)

    def test_add_pm_duplicate_id_rejected(self):
        state = small_state()
        existing = next(iter(state.pms))
        with pytest.raises(ValueError, match="already exists"):
            state.add_pm(PhysicalMachine(pm_id=existing, pm_type=DEFAULT_PM_TYPE))

    def test_add_pm_must_join_empty(self):
        state = small_state()
        pm = PhysicalMachine(pm_id=max(state.pms) + 1, pm_type=DEFAULT_PM_TYPE)
        pm.numas[0].vm_ids.add(1)
        with pytest.raises(ValueError, match="empty"):
            state.add_pm(pm)

    def test_remove_pm_requires_empty(self):
        state = small_state()
        occupied = next(pm_id for pm_id, pm in state.pms.items() if pm.vm_ids)
        with pytest.raises(ValueError, match="still hosts"):
            state.remove_pm(occupied)

    def test_remove_pm_same_count_remove_add_rebuilds_soa(self):
        """A remove+add pair of equal count must not leave a stale SoA."""
        state = small_state()
        state.arrays()  # build the view
        new_id = max(state.pms) + 1
        state.add_pm(PhysicalMachine(pm_id=new_id, pm_type=DEFAULT_PM_TYPE))
        state.remove_pm(new_id)
        bigger = PMType("pm-big", cpu=256, memory=1024)
        state.add_pm(PhysicalMachine(pm_id=new_id + 1, pm_type=bigger))
        state.remove_pm(new_id + 1)
        state.arrays().assert_in_sync(state)

    def test_cannot_remove_last_pm(self):
        state = small_state(num_pms=2, utilization=0.3)
        for vm_id in list(state.placed_vm_ids()):
            state.remove_vm_from_cluster(vm_id)
        pm_ids = sorted(state.pms)
        state.remove_pm(pm_ids[0])
        with pytest.raises(ValueError, match="last PM"):
            state.remove_pm(pm_ids[1])


class TestPinnedEvents:
    """Events with explicit targets (the recorded-trace path)."""

    def test_arrival_with_type(self):
        state = small_state()
        cluster = LivingCluster(
            state, [ClusterEvent(time_s=1.0, kind="arrival", vm_type_name="large")]
        )
        before = state.num_vms
        cluster.advance(10.0)
        assert cluster.stats["arrivals"] == 1
        assert state.num_vms == before + 1

    def test_exit_with_vm_id(self):
        state = small_state()
        victim = state.placed_vm_ids()[0]
        cluster = LivingCluster(state, [ClusterEvent(time_s=1.0, kind="exit", vm_id=victim)])
        cluster.advance(10.0)
        assert cluster.stats["exits"] == 1
        assert victim not in state.vms

    def test_exit_for_missing_vm_skipped(self):
        state = small_state()
        cluster = LivingCluster(state, [ClusterEvent(time_s=1.0, kind="exit", vm_id=999_999)])
        cluster.advance(10.0)
        assert cluster.stats["exits"] == 0
        assert cluster.stats["skipped"] == 1

    def test_resize_with_explicit_type(self):
        state = small_state()
        # Pick a VM that is not already the target flavor.
        vm_id = next(
            vm_id for vm_id in state.placed_vm_ids()
            if state.vms[vm_id].vm_type.name != "large"
        )
        cluster = LivingCluster(
            state,
            [ClusterEvent(time_s=1.0, kind="resize", vm_id=vm_id, vm_type_name="large")],
        )
        cluster.advance(10.0)
        assert cluster.stats["resizes"] == 1
        assert state.vms[vm_id].vm_type.name == "large"
        state.arrays().assert_in_sync(state)

    def test_resize_to_same_flavor_skipped(self):
        state = small_state()
        vm_id = state.placed_vm_ids()[0]
        same = state.vms[vm_id].vm_type.name
        cluster = LivingCluster(
            state,
            [ClusterEvent(time_s=1.0, kind="resize", vm_id=vm_id, vm_type_name=same)],
        )
        cluster.advance(10.0)
        assert cluster.stats["skipped"] == 1
        assert cluster.stats["resizes"] == 0

    def test_resize_too_big_reverts(self):
        state = small_state(num_pms=2, utilization=0.9)
        vm_id = state.placed_vm_ids()[0]
        original = state.vms[vm_id]
        old_type, old_pm = original.vm_type, original.pm_id
        # Precondition for the revert path: nowhere can absorb the largest
        # flavor (44 cpu per NUMA) on this nearly-full cluster.
        freed = original.cpu
        assert all(
            min(numa.free_cpu for numa in pm.numas) + freed < 44
            for pm in state.pms.values()
        )
        cluster = LivingCluster(
            state,
            [ClusterEvent(time_s=1.0, kind="resize", vm_id=vm_id, vm_type_name="22xlarge")],
        )
        cluster.advance(10.0)
        assert cluster.stats["failed_resizes"] == 1
        assert state.vms[vm_id].vm_type == old_type
        assert state.vms[vm_id].pm_id == old_pm
        state.arrays().assert_in_sync(state)

    def test_pm_drain_moves_vms_and_removes_pm(self):
        state = small_state()
        victim = next(pm_id for pm_id, pm in state.pms.items() if pm.vm_ids)
        hosted = sorted(state.pms[victim].vm_ids)
        cluster = LivingCluster(state, [ClusterEvent(time_s=1.0, kind="pm_drain", pm_id=victim)])
        cluster.advance(10.0)
        assert victim not in state.pms
        assert cluster.stats["drains"] == 1
        moved = cluster.stats["drain_migrations"]
        evicted = cluster.stats["evictions"]
        assert moved + evicted == len(hosted)
        for vm_id in hosted:
            if vm_id in state.vms:
                assert state.vms[vm_id].pm_id != victim
        state.arrays().assert_in_sync(state)

    def test_pm_fail_loses_vms(self):
        state = small_state()
        victim = next(pm_id for pm_id, pm in state.pms.items() if pm.vm_ids)
        hosted = sorted(state.pms[victim].vm_ids)
        cluster = LivingCluster(state, [ClusterEvent(time_s=1.0, kind="pm_fail", pm_id=victim)])
        cluster.advance(10.0)
        assert victim not in state.pms
        assert cluster.stats["failures"] == 1
        assert cluster.stats["lost_vms"] == len(hosted)
        assert all(vm_id not in state.vms for vm_id in hosted)
        state.arrays().assert_in_sync(state)

    def test_drain_of_missing_pm_skipped(self):
        state = small_state()
        cluster = LivingCluster(state, [ClusterEvent(time_s=1.0, kind="pm_drain", pm_id=777)])
        cluster.advance(10.0)
        assert cluster.stats["skipped"] == 1
        assert cluster.stats["drains"] == 0

    def test_drain_of_last_pm_skipped(self):
        state = small_state(num_pms=2, utilization=0.3)
        pm_ids = sorted(state.pms)
        events = [
            ClusterEvent(time_s=1.0, kind="pm_fail", pm_id=pm_ids[0]),
            ClusterEvent(time_s=2.0, kind="pm_drain", pm_id=pm_ids[1]),
        ]
        cluster = LivingCluster(state, events)
        cluster.advance(10.0)
        assert cluster.stats["failures"] == 1
        assert cluster.stats["skipped"] == 1
        assert pm_ids[1] in state.pms

    def test_pm_add_with_explicit_capacity(self):
        state = small_state()
        cluster = LivingCluster(
            state,
            [ClusterEvent(time_s=1.0, kind="pm_add", pm_type_name="big",
                          pm_cpu=256, pm_memory=1024)],
        )
        before = sorted(state.pms)
        cluster.advance(10.0)
        new_id = next(pm_id for pm_id in state.pms if pm_id not in before)
        assert state.pms[new_id].pm_type.cpu == 256
        assert cluster.stats["adds"] == 1
        state.arrays().assert_in_sync(state)

    def test_pm_add_generation_schedule_grows_capacity(self):
        state = small_state()
        events = [ClusterEvent(time_s=float(i + 1), kind="pm_add") for i in range(8)]
        cluster = LivingCluster(state, events, adds_per_generation=4, generation_growth=1.5)
        base_cpu = cluster._base_pm_type.cpu
        before = set(state.pms)
        cluster.advance(100.0)
        added = [state.pms[pm_id] for pm_id in sorted(set(state.pms) - before)]
        assert len(added) == 8
        cpus = [pm.pm_type.cpu for pm in added]
        # Generations bump on the 4th and 8th add: capacities never shrink
        # and the last generation is strictly bigger than the first.
        assert cpus == sorted(cpus)
        assert cpus[-1] > base_cpu


class TestEngineChurn:
    def test_heavy_synthetic_churn_keeps_soa_exact(self):
        state = small_state(num_pms=8)
        spec = ChurnSpec(family="abnormal", peak_per_minute=4.0,
                         resizes_per_hour=6.0, drains_per_day=12.0,
                         failures_per_day=6.0, adds_per_day=18.0)
        events = SyntheticTrace(spec, seed=5).generate(DAY_S)
        cluster = LivingCluster(state, events, seed=6)
        cluster.advance(DAY_S)
        assert cluster.pending_events == 0
        assert sum(cluster.stats.values()) == len(events) + cluster.stats["drain_migrations"] \
            + cluster.stats["evictions"] + cluster.stats["lost_vms"]
        state.arrays().assert_in_sync(state)

    def test_same_seed_identical_trajectory(self):
        spec = ChurnSpec(drains_per_day=6.0, failures_per_day=3.0, adds_per_day=9.0)
        events = SyntheticTrace(spec, seed=2).generate(DAY_S)

        def run():
            cluster = LivingCluster(small_state(seed=1), list(events), seed=4)
            cluster.advance(DAY_S)
            return cluster.state.to_dict(), dict(cluster.stats)

        assert run() == run()

    def test_advance_backwards_rejected(self):
        cluster = LivingCluster(small_state(), [])
        cluster.advance(100.0)
        with pytest.raises(ValueError, match="backwards"):
            cluster.advance(50.0)

    @pytest.mark.parametrize("until_s", [float("nan"), float("inf")])
    def test_advance_to_non_finite_time_rejected(self, until_s):
        # NaN compares false with every event time: it would set now_s to
        # NaN and apply nothing, silently.
        cluster = LivingCluster(small_state(), [ClusterEvent(time_s=1.0, kind="exit")])
        with pytest.raises(ValueError, match="non-finite"):
            cluster.advance(until_s)
        assert cluster.now_s == 0.0
        assert cluster.pending_events == 1

    def test_partial_advance_resumes(self):
        state = small_state()
        events = SyntheticTrace(ChurnSpec(), seed=3).generate(4 * 3600.0)
        cluster = LivingCluster(state, events, seed=3)
        cluster.advance(2 * 3600.0)
        remaining = cluster.pending_events
        assert 0 < remaining < len(events)
        cluster.advance(4 * 3600.0)
        assert cluster.pending_events == 0
