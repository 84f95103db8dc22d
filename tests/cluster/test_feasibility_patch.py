"""The memoized feasibility matrix patched from the SoA view's measured diff.

One long-lived :class:`ConstraintChecker` must return, after every placement
mutation, exactly the matrix a fresh checker builds from scratch — whether it
patched the dirty PM columns / VM rows (those the view's
``changed_since`` names) or fell back to a full build (a cloned state,
assigned groups, too many mutations).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ConstraintChecker, Placement
from repro.cluster.constraints import assign_anti_affinity_groups
from repro.datasets import ClusterSpec, SnapshotGenerator

NUM_PMS = 18  # enough PMs for a migration's two to be worth patching


def _state(num_pms=NUM_PMS, seed=0):
    spec = ClusterSpec(
        name="patch", num_pms=num_pms, target_utilization=0.8, best_fit_fraction=0.3
    )
    return SnapshotGenerator(spec, seed=seed).generate()


class _Recorder:
    """Wraps a checker's block function and records the block shapes built."""

    def __init__(self, checker):
        self.shapes = []
        original = checker._feasibility_block

        def recording(*args):
            block = original(*args)
            self.shapes.append(block.shape)
            return block

        checker._feasibility_block = recording

    def take(self):
        shapes, self.shapes = self.shapes, []
        return shapes


def _mutate(state, kind, rng):
    """Apply one random placement mutation of ``kind``; False when none exists."""
    placed = state.placed_vm_ids()
    unplaced = [vm_id for vm_id in state.sorted_vm_ids() if not state.vms[vm_id].is_placed]
    if kind == "place":
        if not unplaced:
            return False
        vm_id = int(unplaced[rng.integers(len(unplaced))])
        for pm_id in rng.permutation(state.sorted_pm_ids()):
            numas = state.feasible_numas(vm_id, int(pm_id))
            if numas:
                state.place_vm(vm_id, Placement(int(pm_id), numas[0]))
                return True
        return False
    vm_id = int(placed[rng.integers(len(placed))])
    if kind == "remove":
        state.remove_vm(vm_id)
        return True
    destinations = state.feasible_destination_pms(vm_id)
    if not destinations:
        return False
    state.migrate_vm(vm_id, int(destinations[rng.integers(len(destinations))]))
    return True


def _assert_equal_to_fresh(checker, state):
    fresh = ConstraintChecker()
    np.testing.assert_array_equal(
        checker.feasibility_matrix(state), fresh.feasibility_matrix(state)
    )
    np.testing.assert_array_equal(
        checker.movable_vm_mask(state), fresh.movable_vm_mask(state)
    )


class TestPatchedMatrixEqualsFresh:
    @given(
        st.lists(st.sampled_from(["migrate", "migrate", "remove", "place"]), min_size=1, max_size=25),
        st.integers(0, 2 ** 31 - 1),
        st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_mutation_sequences(self, kinds, seed, groups):
        rng = np.random.default_rng(seed)
        state = _state(seed=seed % 5)
        if groups:
            assign_anti_affinity_groups(state, group_count=8, vms_per_group=4, rng=rng)
        checker = ConstraintChecker()
        recorder = _Recorder(checker)
        _assert_equal_to_fresh(checker, state)
        assert recorder.take() == [(state.num_vms, state.num_pms)]
        for kind in kinds:
            if not _mutate(state, kind, rng):
                continue
            _assert_equal_to_fresh(checker, state)
            # One mutation touches ≤ 2 PMs and 1 VM: patched, never rebuilt.
            columns, rows = recorder.take()
            assert columns[0] == state.num_vms and columns[1] <= 2
            assert rows == (1, state.num_pms)


class TestFallsBackToFullBuild:
    def _checker(self, state):
        checker = ConstraintChecker()
        recorder = _Recorder(checker)
        checker.feasibility_matrix(state)
        recorder.take()
        return checker, recorder

    def _full(self, state):
        return [(state.num_vms, state.num_pms)]

    def test_groups_assigned_mid_sequence(self):
        state = _state(seed=1)
        rng = np.random.default_rng(0)
        checker, recorder = self._checker(state)
        assert _mutate(state, "migrate", rng)
        _assert_equal_to_fresh(checker, state)
        assert len(recorder.take()) == 2  # patched
        assign_anti_affinity_groups(state, group_count=6, vms_per_group=5, rng=rng)
        assert _mutate(state, "migrate", rng)
        _assert_equal_to_fresh(checker, state)
        assert recorder.take() == self._full(state)
        assert _mutate(state, "migrate", rng)
        _assert_equal_to_fresh(checker, state)
        assert len(recorder.take()) == 2  # same groups again: patched

    def test_copied_state_is_an_identity_miss(self):
        state = _state(seed=2)
        rng = np.random.default_rng(1)
        checker, recorder = self._checker(state)
        clone = state.copy()
        assert _mutate(clone, "migrate", rng)
        _assert_equal_to_fresh(checker, clone)
        assert recorder.take() == self._full(clone)
        # ... and the original, untouched by the clone's migration, rebuilds too.
        _assert_equal_to_fresh(checker, state)
        assert recorder.take() == self._full(state)

    def test_too_many_touched_pms(self):
        """8 PMs: a migration's two are a quarter of them — rebuilt, not patched;
        likewise many migrations between two reads on a larger cluster."""
        small = _state(num_pms=8, seed=4)
        rng = np.random.default_rng(3)
        checker, recorder = self._checker(small)
        assert _mutate(small, "migrate", rng)
        _assert_equal_to_fresh(checker, small)
        assert recorder.take() == self._full(small)

        state = _state(seed=4)
        checker, recorder = self._checker(state)
        assert sum(_mutate(state, "migrate", rng) for _ in range(5)) >= 2
        _assert_equal_to_fresh(checker, state)
        assert recorder.take() == self._full(state)


class TestMeasuredDirtySet:
    def test_vm_moved_away_and_back_patches_nothing(self):
        """Between two reads a VM leaves and returns to its NUMA: no VM row
        and no PM column differs, so the patch recomputes no cell."""
        state = _state(num_pms=40, seed=5)
        checker = ConstraintChecker()
        recorder = _Recorder(checker)
        movable = checker.movable_vm_mask(state)
        recorder.take()
        vm_id = state.sorted_vm_ids()[int(np.flatnonzero(movable)[0])]
        vm = state.vms[vm_id]
        source_pm, source_numa = vm.pm_id, vm.numa_id
        state.migrate_vm(vm_id, state.feasible_destination_pms(vm_id)[0])
        state.migrate_vm(vm_id, source_pm, dest_numa_id=source_numa)
        _assert_equal_to_fresh(checker, state)
        assert recorder.take() == [(state.num_vms, 0), (0, state.num_pms)]
