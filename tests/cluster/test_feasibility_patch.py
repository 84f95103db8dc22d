"""The memoized feasibility matrix patched from the SoA view's measured diff.

The view's memo (:meth:`ClusterArrays.feasibility`, read through any
:class:`ConstraintChecker`) must return, after every placement mutation,
exactly the matrix a freshly built view computes from scratch — whether it
patched the dirty PM columns / VM rows (those the view's ``changed_since``
names) or fell back to a full build (a cloned state, assigned groups, too
many mutations).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterState, ConstraintChecker, Placement, soa
from repro.cluster.constraints import assign_anti_affinity_groups
from repro.datasets import ClusterSpec, SnapshotGenerator

NUM_PMS = 18  # enough PMs for a migration's two to be worth patching


def _state(num_pms=NUM_PMS, seed=0):
    spec = ClusterSpec(
        name="patch", num_pms=num_pms, target_utilization=0.8, best_fit_fraction=0.3
    )
    return SnapshotGenerator(spec, seed=seed).generate()


class _Recorder:
    """Wraps the view's block function (``soa._feasibility_block``) inside a
    ``with`` block and records the block shapes built, except while
    :meth:`paused` (the fresh reference build)."""

    def __enter__(self):
        self.shapes = []
        self.recording = True
        self.original = soa._feasibility_block

        def recording(*args):
            block = self.original(*args)
            if self.recording:
                self.shapes.append(block.shape)
            return block

        soa._feasibility_block = recording
        return self

    def __exit__(self, *exc):
        soa._feasibility_block = self.original

    def take(self):
        shapes, self.shapes = self.shapes, []
        return shapes


def _fresh_matrix(state, recorder=None):
    """The matrix a newly built view computes, unrecorded."""
    if recorder is not None:
        recorder.recording = False
    try:
        return ClusterState.from_dict(state.to_dict()).arrays().feasibility()
    finally:
        if recorder is not None:
            recorder.recording = True


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
    # Destinations from can_host, not feasible_destination_pms: reading the
    # memoized matrix here would move the reads the tests count.
    source = state.vms[vm_id].pm_id
    destinations = [
        pm_id for pm_id in state.sorted_pm_ids() if pm_id != source and state.can_host(vm_id, pm_id)
    ]
    if not destinations:
        return False
    state.migrate_vm(vm_id, int(destinations[rng.integers(len(destinations))]))
    return True


def _assert_equal_to_fresh(recorder, state):
    checker = ConstraintChecker()
    fresh = _fresh_matrix(state, recorder)
    np.testing.assert_array_equal(checker.feasibility_matrix(state), fresh)
    np.testing.assert_array_equal(checker.movable_vm_mask(state), fresh.any(axis=1))


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
        with _Recorder() as recorder:
            _assert_equal_to_fresh(recorder, state)
            assert recorder.take() == [(state.num_vms, state.num_pms)]
            for kind in kinds:
                if not _mutate(state, kind, rng):
                    continue
                _assert_equal_to_fresh(recorder, state)
                # One mutation touches ≤ 2 PMs and 1 VM: patched, never rebuilt.
                columns, rows = recorder.take()
                assert columns[0] == state.num_vms and columns[1] <= 2
                assert rows == (1, state.num_pms)


def _full(state):
    return [(state.num_vms, state.num_pms)]


class TestFallsBackToFullBuild:
    def test_groups_assigned_mid_sequence(self):
        state = _state(seed=1)
        rng = np.random.default_rng(0)
        with _Recorder() as recorder:
            _assert_equal_to_fresh(recorder, state)
            recorder.take()
            assert _mutate(state, "migrate", rng)
            _assert_equal_to_fresh(recorder, state)
            assert len(recorder.take()) == 2  # patched
            assign_anti_affinity_groups(state, group_count=6, vms_per_group=5, rng=rng)
            assert _mutate(state, "migrate", rng)
            _assert_equal_to_fresh(recorder, state)
            assert recorder.take() == _full(state)
            assert _mutate(state, "migrate", rng)
            _assert_equal_to_fresh(recorder, state)
            assert len(recorder.take()) == 2  # same groups again: patched

    def test_copied_state_is_an_identity_miss(self):
        state = _state(seed=2)
        rng = np.random.default_rng(1)
        with _Recorder() as recorder:
            _assert_equal_to_fresh(recorder, state)
            recorder.take()
            clone = state.copy()
            assert _mutate(clone, "migrate", rng)
            _assert_equal_to_fresh(recorder, clone)
            assert recorder.take() == _full(clone)
            # ... and the original, untouched by the clone's migration, keeps
            # its own memo.
            _assert_equal_to_fresh(recorder, state)
            assert recorder.take() == []

    def test_too_many_touched_pms(self):
        """8 PMs: a migration's two are a quarter of them — rebuilt, not patched;
        likewise many migrations between two reads on a larger cluster."""
        small = _state(num_pms=8, seed=4)
        state = _state(seed=4)
        rng = np.random.default_rng(3)
        with _Recorder() as recorder:
            _assert_equal_to_fresh(recorder, small)
            recorder.take()
            assert _mutate(small, "migrate", rng)
            _assert_equal_to_fresh(recorder, small)
            assert recorder.take() == _full(small)

            _assert_equal_to_fresh(recorder, state)
            recorder.take()
            assert sum(_mutate(state, "migrate", rng) for _ in range(5)) >= 2
            _assert_equal_to_fresh(recorder, state)
            assert recorder.take() == _full(state)


class TestMeasuredDirtySet:
    def test_vm_moved_away_and_back_patches_nothing(self):
        """Between two reads a VM leaves and returns to its NUMA: no VM row
        and no PM column differs, so the patch recomputes no cell."""
        state = _state(num_pms=40, seed=5)
        with _Recorder() as recorder:
            movable = ConstraintChecker().movable_vm_mask(state)
            recorder.take()
            vm_id = state.sorted_vm_ids()[int(np.flatnonzero(movable)[0])]
            vm = state.vms[vm_id]
            source_pm, source_numa = vm.pm_id, vm.numa_id
            state.migrate_vm(vm_id, state.feasible_destination_pms(vm_id)[0])
            state.migrate_vm(vm_id, source_pm, dest_numa_id=source_numa)
            _assert_equal_to_fresh(recorder, state)
            assert recorder.take() == [(state.num_vms, 0), (0, state.num_pms)]
