"""Parity tests for the structure-of-arrays (SoA) hot paths.

The vectorized masks, featurization, fragment metrics and ``copy`` must be
bit-for-bit identical to the loop implementations (the ``*_reference``
oracles in ``tests/oracles.py``) on randomized clusters, including 2-NUMA VMs and
anti-affinity edge cases, and the arrays must always recount exactly after
arbitrary mutation sequences.
"""

import time

import numpy as np
import pytest

from repro.cluster import (
    BOTH_NUMAS,
    ClusterState,
    ConstraintChecker,
    ConstraintConfig,
    VirtualMachine,
    assign_anti_affinity_groups,
)
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env.observation import ObservationBuilder

from oracles import (
    assert_recounted,
    build_reference,
    cluster_cpu_fragment,
    destination_mask_reference,
    fragment_rate,
    memory_fragment_rate,
    movable_vm_mask_reference,
)


def random_state(seed: int, num_pms: int = 20, groups: int = 3) -> ClusterState:
    spec = ClusterSpec(
        name=f"parity-{seed}",
        num_pms=num_pms,
        target_utilization=0.72,
        best_fit_fraction=0.3,
    )
    state = SnapshotGenerator(spec, seed=seed).generate()
    if groups:
        rng = np.random.default_rng(seed + 1)
        vms_per_group = 3
        if groups * vms_per_group <= state.num_vms:
            assign_anti_affinity_groups(state, groups, vms_per_group, rng)
    return state


class TestMaskParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_destination_and_movable_masks(self, seed):
        state = random_state(seed)
        checker = ConstraintChecker()
        np.testing.assert_array_equal(
            checker.movable_vm_mask(state), movable_vm_mask_reference(state)
        )
        matrix = checker.feasibility_matrix(state)
        pm_ids = state.sorted_pm_ids()
        for row, vm_id in enumerate(state.sorted_vm_ids()):
            reference = destination_mask_reference(state, vm_id)
            np.testing.assert_array_equal(checker.destination_mask(state, vm_id), reference)
            np.testing.assert_array_equal(matrix[row], reference)
            cells = [checker.migration_is_feasible(state, vm_id, pm_id) for pm_id in pm_ids]
            np.testing.assert_array_equal(cells, reference)

    def test_unknown_ids(self):
        state = random_state(4)
        checker = ConstraintChecker()
        vm_id = state.placed_vm_ids()[0]
        assert not checker.migration_is_feasible(state, vm_id, 10_000)
        assert not checker.migration_is_feasible(state, 999_999, state.sorted_pm_ids()[0])
        assert not checker.destination_mask(state, 999_999).any()

    def test_unplaced_and_missing_vm(self):
        state = random_state(5, groups=0)
        checker = ConstraintChecker()
        unplaced_id = max(state.vms) + 1
        state.add_vm(VirtualMachine(vm_id=unplaced_id, vm_type=next(iter(state.vms.values())).vm_type))
        assert not checker.destination_mask(state, unplaced_id).any()
        assert not checker.destination_mask(state, 999_999).any()
        np.testing.assert_array_equal(
            checker.movable_vm_mask(state), movable_vm_mask_reference(state)
        )

    def test_group_assigned_after_arrays_built(self):
        """Anti-affinity groups set *after* the SoA view exists must be honored."""
        state = random_state(7, groups=0)
        checker = ConstraintChecker()
        checker.movable_vm_mask(state)  # builds the SoA view
        placed = state.placed_vm_ids()
        state.set_anti_affinity_group(placed[0], 42)
        state.set_anti_affinity_group(placed[1], 42)
        for vm_id in (placed[0], placed[1]):
            np.testing.assert_array_equal(
                checker.destination_mask(state, vm_id),
                destination_mask_reference(state, vm_id),
            )
        np.testing.assert_array_equal(
            checker.movable_vm_mask(state), movable_vm_mask_reference(state)
        )
        assert_recounted(state)


class TestGroupsInTheView:
    def test_vm_group_is_dense_and_shared_by_copies(self):
        state = random_state(8, groups=0)
        placed = state.placed_vm_ids()
        state.set_anti_affinity_group(placed[2], "web")
        state.set_anti_affinity_group(placed[0], 7)
        state.set_anti_affinity_group(placed[1], "web")
        soa = state.arrays()
        expected = np.full(state.num_vms, -1)
        rows = [soa.vm_row[vm_id] for vm_id in placed[:3]]
        expected[rows] = [0, 1, 1]  # numbered in sorted-VM order
        np.testing.assert_array_equal(soa.vm_group, expected)
        assert state.copy().arrays().vm_group is soa.vm_group

    def test_group_code_follows_the_members(self):
        """A label keeps its dense index while a VM carries it, and leaves
        ``group_code`` with its last member."""
        state = random_state(8, groups=0)
        placed = state.placed_vm_ids()
        state.set_anti_affinity_group(placed[0], "web")
        state.set_anti_affinity_group(placed[1], "db")
        assert state.arrays().group_code == {"web": 0, "db": 1}
        state.remove_vm_from_cluster(placed[0])
        assert state.arrays().group_code == {"db": 0}
        state.remove_vm_from_cluster(placed[1])
        assert state.arrays().group_code == {}
        assert state.arrays().vm_group.max() == -1

    def test_group_set_on_a_copy_leaves_the_original(self):
        state = random_state(9, groups=0)
        checker = ConstraintChecker()
        before = checker.feasibility_matrix(state)
        clone = state.copy()
        for vm_id in clone.placed_vm_ids()[:6]:
            clone.set_anti_affinity_group(vm_id, 1)
        assert_recounted(clone)
        assert_recounted(state)
        assert state.arrays().vm_group.max() == -1
        np.testing.assert_array_equal(checker.feasibility_matrix(state), before)
        np.testing.assert_array_equal(
            checker.movable_vm_mask(clone), movable_vm_mask_reference(clone)
        )

    def test_recount_catches_a_stale_group(self):
        state = random_state(10, groups=0)
        soa = state.arrays()
        soa.vm_group = soa.vm_group.copy()
        soa.vm_group[0] = 0
        with pytest.raises(AssertionError):
            assert_recounted(state)

    def test_recount_catches_a_lost_release(self):
        state = random_state(10, groups=0)
        soa = state.arrays()
        soa.numa_free_cpu[soa.vm_pm[np.flatnonzero(soa.vm_pm >= 0)[0]]] -= 0.5
        with pytest.raises(AssertionError):
            assert_recounted(state)


class TestFeatureParity:
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_observation_matches_reference(self, seed):
        state = random_state(seed)
        builder = ObservationBuilder(ConstraintChecker())
        fast = builder.build(state, migrations_left=12)
        reference = build_reference(state, migrations_left=12)
        np.testing.assert_array_equal(fast.pm_features, reference.pm_features)
        np.testing.assert_array_equal(fast.vm_features, reference.vm_features)
        np.testing.assert_array_equal(fast.vm_source_pm, reference.vm_source_pm)
        np.testing.assert_array_equal(fast.vm_mask, reference.vm_mask)
        # The reference featurizes in sorted id order, and so does the SoA
        # view: row i is the i-th id, the index -> id contract that
        # VMRescheduleEnv.step resolves actions through.
        soa = state.arrays()
        np.testing.assert_array_equal(soa.vm_ids, state.sorted_vm_ids())
        np.testing.assert_array_equal(soa.pm_ids, state.sorted_pm_ids())


class TestMetricParity:
    @pytest.mark.parametrize("seed", [0, 9])
    def test_fragment_metrics_match_object_reductions(self, seed):
        state = random_state(seed)
        pms = list(state.pms.values())
        assert state.fragment_rate() == fragment_rate(pms, state.fragment_cores)
        assert state.fragment_rate(64) == fragment_rate(pms, 64)
        assert state.total_fragment() == cluster_cpu_fragment(pms, state.fragment_cores)
        assert state.memory_fragment_rate() == memory_fragment_rate(pms, 64.0)
        total = sum(pm.cpu_capacity for pm in pms)
        free = sum(pm.free_cpu for pm in pms)
        assert state.cpu_utilization() == pytest.approx(1.0 - free / total)


class TestMutationsRecount:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_arrays_track_random_mutations(self, seed):
        state = random_state(seed)
        checker = ConstraintChecker()
        rng = np.random.default_rng(seed)
        assert_recounted(state)
        vm_type = next(iter(state.vms.values())).vm_type
        next_id = max(state.vms) + 1
        for step in range(60):
            movable = checker.movable_vm_mask(state)
            choice = rng.integers(4)
            if choice == 0 and movable.any():
                vm_id = state.sorted_vm_ids()[int(rng.choice(np.nonzero(movable)[0]))]
                dest = state.sorted_pm_ids()[
                    int(rng.choice(np.nonzero(checker.destination_mask(state, vm_id))[0]))
                ]
                state.migrate_vm(vm_id, dest)
            elif choice == 1:
                placed = state.placed_vm_ids()
                if placed:
                    state.remove_vm(int(rng.choice(placed)))
            elif choice == 2:
                state.add_vm(VirtualMachine(vm_id=next_id, vm_type=vm_type))
                next_id += 1
            else:
                unplaced = [v for v in state.sorted_vm_ids() if not state.vms[v].is_placed]
                if unplaced:
                    state.remove_vm_from_cluster(int(rng.choice(unplaced)))
            assert_recounted(state)
            np.testing.assert_array_equal(
                checker.movable_vm_mask(state), movable_vm_mask_reference(state)
            )

    def test_double_numa_place_remove_cycle(self):
        state = random_state(2, groups=0)
        doubles = [v.vm_id for v in state.vms.values() if v.numa_count == 2 and v.is_placed]
        if not doubles:
            pytest.skip("generator produced no placed 2-NUMA VM for this seed")
        vm_id = doubles[0]
        state.arrays()
        placement = state.remove_vm(vm_id)
        assert_recounted(state)
        assert placement.numa_id == BOTH_NUMAS
        state.place_vm(vm_id, placement, honor_affinity=False)
        assert_recounted(state)


class TestCopyParity:
    def test_copy_is_deep_and_identical(self):
        state = random_state(3)
        state.arrays()  # ensure the SoA view is carried over
        clone = state.copy()
        assert clone.to_dict() == state.to_dict()
        assert_recounted(clone)
        checker = ConstraintChecker()
        np.testing.assert_array_equal(
            checker.movable_vm_mask(clone), movable_vm_mask_reference(clone)
        )
        # Mutating the clone leaves the original untouched (and vice versa).
        vm_id = clone.placed_vm_ids()[0]
        mask = checker.destination_mask(clone, vm_id)
        if mask.any():
            dest = clone.sorted_pm_ids()[int(np.nonzero(mask)[0][0])]
            clone.migrate_vm(vm_id, dest)
            assert state.vms[vm_id].pm_id != clone.vms[vm_id].pm_id
            assert_recounted(state)
            assert_recounted(clone)

    def test_copy_without_arrays_built(self):
        state = random_state(4)
        clone = state.copy()
        assert clone.to_dict() == state.to_dict()
        assert_recounted(clone)


class TestRewardParity:
    def test_episode_rewards_match_reference_masks(self):
        """A greedy rollout picks identical actions and rewards under both paths."""
        from repro.env import VMRescheduleEnv

        state = random_state(1)
        env = VMRescheduleEnv(state, constraint_config=ConstraintConfig(migration_limit=6))
        env.reset()
        rng = np.random.default_rng(0)
        total = 0.0
        for _ in range(6):
            vm_mask = env.vm_action_mask()
            np.testing.assert_array_equal(
                vm_mask, movable_vm_mask_reference(env.state)
            )
            if not vm_mask.any():
                break
            vm_index = int(rng.choice(np.nonzero(vm_mask)[0]))
            pm_mask = env.pm_action_mask(vm_index)
            np.testing.assert_array_equal(
                pm_mask,
                destination_mask_reference(env.state, env.state.sorted_vm_ids()[vm_index]),
            )
            if not pm_mask.any():
                continue
            pm_index = int(rng.choice(np.nonzero(pm_mask)[0]))
            _, reward, done, _ = env.step((vm_index, pm_index))
            total += reward
            if done:
                break
        assert np.isfinite(total)


def test_snapshots_read_the_arrays():
    """``state.pms`` / ``state.vms`` snapshots show the view's free capacity
    and placements."""
    state = random_state(11)
    soa = state.arrays()
    assert soa.num_pms == state.num_pms and soa.num_vms == state.num_vms
    for row, pm_id in enumerate(state.sorted_pm_ids()):
        pm = state.pms[pm_id]
        for numa in pm.numas:
            assert soa.numa_free_cpu[row, numa.numa_id] == numa.free_cpu
            assert soa.numa_free_mem[row, numa.numa_id] == numa.free_memory
            for vm_id in numa.vm_ids:
                assert soa.vm_pm[soa.vm_row[vm_id]] == row
                assert soa.vm_numa[soa.vm_row[vm_id]] in (numa.numa_id, BOTH_NUMAS)
    for row, vm_id in enumerate(state.sorted_vm_ids()):
        vm = state.vms[vm_id]
        assert (soa.vm_pm[row] >= 0) == vm.is_placed
        if vm.is_placed:
            assert soa.pm_ids[soa.vm_pm[row]] == vm.pm_id and soa.vm_numa[row] == vm.numa_id


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_vectorized_paths_beat_the_loop_oracles():
    """The O(V·P) loops the SoA paths replaced are slower even on a 10-PM
    cluster: stage-1 masks from a fresh checker (no feasibility-matrix memo)
    and a fresh builder's observation.  ``destination_mask``'s fixed numpy
    overhead can tie at this size, so it is only checked for parity above."""
    spec = ClusterSpec(name="perf-medium", num_pms=10, target_utilization=0.78,
                       best_fit_fraction=0.3)
    state = SnapshotGenerator(spec, seed=0).generate()
    groups = max(state.num_vms // 40, 1)
    if groups * 3 <= state.num_vms:
        assign_anti_affinity_groups(state, groups, 3, np.random.default_rng(1))
    config = ConstraintConfig(migration_limit=25)
    state.arrays()
    assert _best_of(lambda: ConstraintChecker(config).movable_vm_mask(state), 8) < _best_of(
        lambda: movable_vm_mask_reference(state), 4
    )
    assert _best_of(
        lambda: ObservationBuilder(ConstraintChecker(config)).build(state, 25), 8
    ) < _best_of(lambda: build_reference(state, 25), 2)
