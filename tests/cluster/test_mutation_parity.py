"""Random mutator sequences keep a cluster state exact.

Every mutator of :class:`ClusterState` — ``migrate_vm``, ``place_vm``,
``remove_vm``, ``add_vm``, ``remove_vm_from_cluster``, ``add_pm``,
``remove_pm``, ``set_anti_affinity_group``, a simulator resize and
``copy()`` — runs in random order.  After every step:

* ``from_dict(to_dict())`` reproduces the state's SoA arrays bit for bit;
* a copy and its original never see each other's later mutations (each
  ``copy`` step parks one of the pair, and a parked state must keep its
  fingerprint to the end);
* the memoized ``feasibility()`` equals the one of a fresh build.

The clusters have 20 PMs, so a migration's two dirty PMs stay under the
feasibility memo's patch threshold and the patch path runs, and their PM ids
have gaps, so PMs join and leave between others and the rows after them
shift.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterEvent,
    ClusterState,
    PhysicalMachine,
    Placement,
    VirtualMachine,
    VMTypeCatalog,
    assign_anti_affinity_groups,
)
from repro.cluster.vm_types import DEFAULT_PM_TYPE, PMType
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.sim import LivingCluster

#: Every array of the SoA view that describes the cluster.
ARRAY_FIELDS = (
    "pm_ids",
    "numa_free_cpu",
    "numa_free_mem",
    "numa_cap_cpu",
    "numa_cap_mem",
    "vm_ids",
    "vm_cpu",
    "vm_mem",
    "vm_cpu_half",
    "vm_mem_half",
    "vm_double",
    "vm_pm",
    "vm_numa",
    "vm_group",
)

KINDS = (
    "migrate",
    "migrate",
    "place",
    "remove",
    "add_vm",
    "remove_vm_from_cluster",
    "add_pm",
    "remove_pm",
    "drain_pm",
    "group",
    "resize",
    "copy",
)

GROUPS = (None, 0, 1, 2, "batch")

PM_TYPES = (DEFAULT_PM_TYPE, PMType("pm-large", cpu=192, memory=768))


def _state(seed: int) -> ClusterState:
    """A generated 20-PM cluster with two groups, its PM ids doubled so that
    PMs can join between existing ones."""
    spec = ClusterSpec(
        name="mutation-parity", num_pms=20, target_utilization=0.78, best_fit_fraction=0.3
    )
    state = SnapshotGenerator(spec, seed=seed).generate()
    assign_anti_affinity_groups(state, 2, 3, np.random.default_rng(seed))
    payload = state.to_dict()
    for machine in payload["pms"] + payload["vms"]:
        if machine.get("pm_id") is not None:
            machine["pm_id"] *= 2
    return ClusterState.from_dict(payload)


def _fingerprint(state: ClusterState) -> tuple:
    soa = state.arrays()
    return state.to_json(), tuple(
        (getattr(soa, name).dtype.str, getattr(soa, name).shape, getattr(soa, name).tobytes())
        for name in ARRAY_FIELDS
    )


def _assert_exact(state: ClusterState) -> None:
    soa = state.arrays()
    fresh = ClusterState.from_dict(state.to_dict()).arrays()
    for name in ARRAY_FIELDS:
        mine, theirs = getattr(soa, name), getattr(fresh, name)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, name
        assert mine.tobytes() == theirs.tobytes(), name
    np.testing.assert_array_equal(soa.feasibility(), fresh.feasibility())


def _mutate(state: ClusterState, kind: str, rng: np.random.Generator):
    """Apply one random change of ``kind`` (a no-op when none applies).
    Returns ``(state to continue with, parked state or None)``."""
    placed = state.placed_vm_ids()
    vm_ids = state.sorted_vm_ids()
    pm_ids = state.sorted_pm_ids()
    if kind == "copy":
        clone = state.copy()
        return (clone, state) if rng.random() < 0.5 else (state, clone)
    if kind == "migrate" and placed:
        vm_id = int(rng.choice(placed))
        destinations = state.feasible_destination_pms(vm_id)
        if destinations:
            state.migrate_vm(vm_id, int(rng.choice(destinations)))
    elif kind == "place":
        unplaced = [vm_id for vm_id in vm_ids if not state.vms[vm_id].is_placed]
        if unplaced:
            vm_id = int(rng.choice(unplaced))
            for pm_id in rng.permutation(pm_ids):
                numas = state.feasible_numas(vm_id, int(pm_id))
                if numas:
                    state.place_vm(vm_id, Placement(int(pm_id), int(rng.choice(numas))))
                    break
    elif kind == "remove" and placed:
        state.remove_vm(int(rng.choice(placed)))
    elif kind == "add_vm":
        vm_type = rng.choice(list(VMTypeCatalog.main()))
        group = GROUPS[rng.integers(len(GROUPS))]
        vm = VirtualMachine(
            vm_id=max(vm_ids, default=0) + 1 + int(rng.integers(3)),
            vm_type=vm_type,
            anti_affinity_group=group,
        )
        placement = None
        for pm_id in rng.permutation(pm_ids)[:4]:
            numas = _probe_numas(state, vm, int(pm_id))
            if numas:
                placement = Placement(int(pm_id), int(rng.choice(numas)))
                break
        state.add_vm(vm, placement)
    elif kind == "remove_vm_from_cluster" and vm_ids:
        state.remove_vm_from_cluster(int(rng.choice(vm_ids)))
    elif kind == "add_pm":
        pm_type = PM_TYPES[rng.integers(len(PM_TYPES))]
        free_ids = sorted(set(range(max(pm_ids) + 3)) - set(pm_ids))
        state.add_pm(PhysicalMachine(pm_id=int(rng.choice(free_ids)), pm_type=pm_type))
    elif kind == "remove_pm" and len(pm_ids) > 1:
        empty = [pm_id for pm_id in pm_ids if not state.pms[pm_id].vm_ids]
        if empty:
            state.remove_pm(int(rng.choice(empty)))
    elif kind == "drain_pm" and len(pm_ids) > 1:
        # Empty a PM (its VMs leave the cluster or stay unplaced), then
        # remove it: the PM rows after it shift down.
        pm_id = int(rng.choice(pm_ids))
        for vm_id in sorted(state.pms[pm_id].vm_ids):
            if rng.random() < 0.5:
                state.remove_vm_from_cluster(vm_id)
            else:
                state.remove_vm(vm_id)
        state.remove_pm(pm_id)
    elif kind == "group" and vm_ids:
        vm_id = int(rng.choice(vm_ids))
        state.set_anti_affinity_group(vm_id, GROUPS[rng.integers(len(GROUPS))])
    elif kind == "resize":
        engine = LivingCluster(state, [], seed=int(rng.integers(2 ** 31)))
        engine._apply_resize(ClusterEvent(time_s=0.0, kind="resize"))
    return state, None


def _probe_numas(state: ClusterState, vm: VirtualMachine, pm_id: int) -> list:
    """NUMA targets on ``pm_id`` with room for a VM not yet in the cluster
    (anti-affinity is left to ``add_vm``'s placement check)."""
    pm = state.pms[pm_id]
    if vm.numa_count == 2:
        fits = all(
            numa.free_cpu >= vm.cpu_per_numa and numa.free_memory >= vm.memory_per_numa
            for numa in pm.numas
        )
        return [-1] if fits else []
    return [
        numa.numa_id
        for numa in pm.numas
        if numa.free_cpu >= vm.cpu and numa.free_memory >= vm.memory
    ]


class TestMutationSequences:
    @given(
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=24),
        st.integers(0, 2 ** 31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_step_stays_exact(self, kinds, seed):
        rng = np.random.default_rng(seed)
        state = _state(seed % 3)
        parked = []
        _assert_exact(state)
        for kind in kinds:
            try:
                state, park = _mutate(state, kind, rng)
            except ValueError as exc:
                # add_vm's placement may break anti-affinity: the VM joins
                # unplaced, which is still a state to check.
                assert "anti-affinity" in str(exc), exc
                park = None
            if park is not None:
                parked.append((park, _fingerprint(park)))
            _assert_exact(state)
            for other, fingerprint in parked:
                assert _fingerprint(other) == fingerprint
