"""Synthetic cluster-snapshot generator.

The paper evaluates on anonymized snapshots of production clusters (Medium,
Large, Multi-Resource, plus Low/Mid/High workload variants).  Those traces are
not redistributable here, so this generator synthesizes mappings with the same
structural properties the rescheduling algorithms interact with:

* the VM-type mix of Table 1 (small VMs far more common than large ones),
* two NUMA nodes per PM with per-NUMA capacity accounting,
* a target CPU utilization ("workload" in the paper's terminology, Fig. 15),
* realistic fragmentation produced by placing VMs with a mixture of best-fit
  and random-fit followed by random departures (the mechanism the paper
  describes: continual creation and release of VMs leaves scattered holes),
* optional Multi-Resource PM/VM types (§5.4) and anti-affinity groups.

Cluster-scale presets mirror the paper's datasets, plus a ``small`` preset used
by the test-suite and the default benchmark scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster import (
    ClusterState,
    PhysicalMachine,
    Placement,
    VirtualMachine,
    VMTypeCatalog,
    assign_anti_affinity_groups,
    best_fit_placement,
    landing_slots,
)
from ..cluster.vm_types import (
    DEFAULT_PM_TYPE,
    MULTI_RESOURCE_PM_TYPES,
    PMType,
    VMType,
)


@dataclass(frozen=True)
class ClusterSpec:
    """Parameters controlling synthetic snapshot generation."""

    name: str = "small"
    num_pms: int = 24
    pm_types: Tuple[PMType, ...] = (DEFAULT_PM_TYPE,)
    pm_type_weights: Tuple[float, ...] = (1.0,)
    target_utilization: float = 0.75
    utilization_jitter: float = 0.03
    multi_resource: bool = False
    fragment_cores: int = 16
    #: fraction of placements made with best-fit (rest are random-fit); a lower
    #: value produces more fragmentation in the initial mapping.
    best_fit_fraction: float = 0.5
    #: fraction of placed VMs removed again to carve release-holes.
    churn_fraction: float = 0.25
    #: anti-affinity synthesis: number of groups and members per group.
    affinity_groups: int = 0
    affinity_group_size: int = 0

    def __post_init__(self) -> None:
        if self.num_pms <= 0:
            raise ValueError("num_pms must be positive")
        if not 0.0 < self.target_utilization < 1.0:
            raise ValueError("target_utilization must be in (0, 1)")
        if len(self.pm_types) != len(self.pm_type_weights):
            raise ValueError("pm_types and pm_type_weights must have equal length")
        if not 0.0 <= self.best_fit_fraction <= 1.0:
            raise ValueError("best_fit_fraction must be in [0, 1]")
        if not 0.0 <= self.churn_fraction < 1.0:
            raise ValueError("churn_fraction must be in [0, 1)")


#: VM-type sampling weights: smaller flavors dominate real clusters (§1).
DEFAULT_VM_TYPE_WEIGHTS: Dict[str, float] = {
    "large": 0.26,
    "xlarge": 0.26,
    "2xlarge": 0.20,
    "4xlarge": 0.16,
    "8xlarge": 0.07,
    "16xlarge": 0.04,
    "22xlarge": 0.01,
}

MULTI_RESOURCE_EXTRA_WEIGHTS: Dict[str, float] = {
    "large-mem4": 0.05,
    "large-mem8": 0.03,
    "xlarge-mem4": 0.05,
    "xlarge-mem8": 0.03,
    "2xlarge-mem4": 0.04,
    "4xlarge-mem4": 0.03,
    "8xlarge-mem4": 0.02,
}


# --------------------------------------------------------------------------- #
# Presets mirroring the paper's datasets (plus a reduced "small" preset)
# --------------------------------------------------------------------------- #
def small_spec(target_utilization: float = 0.75) -> ClusterSpec:
    """Reduced-scale cluster used by tests and default benchmark runs."""
    return ClusterSpec(name="small", num_pms=24, target_utilization=target_utilization)


def medium_spec(target_utilization: float = 0.78) -> ClusterSpec:
    """The paper's Medium dataset scale: 280 PMs, ~2089 VMs."""
    return ClusterSpec(name="medium", num_pms=280, target_utilization=target_utilization)


def large_spec(target_utilization: float = 0.70) -> ClusterSpec:
    """The paper's Large dataset scale: 1176 PMs, ~4546 VMs (larger average VMs)."""
    return ClusterSpec(name="large", num_pms=1176, target_utilization=target_utilization)


def multi_resource_spec(num_pms: int = 20, target_utilization: float = 0.72) -> ClusterSpec:
    """The §5.4 Multi-Resource cluster: two PM types and memory-boosted VM types."""
    return ClusterSpec(
        name="multi_resource",
        num_pms=num_pms,
        pm_types=MULTI_RESOURCE_PM_TYPES,
        pm_type_weights=(0.6, 0.4),
        target_utilization=target_utilization,
        multi_resource=True,
    )


PRESETS = {
    "small": small_spec,
    "medium": medium_spec,
    "large": large_spec,
    "multi_resource": multi_resource_spec,
}


def get_spec(name: str, **overrides) -> ClusterSpec:
    """Look up a preset spec by name, applying field overrides.

    Overrides may name any :class:`ClusterSpec` field (e.g. ``num_pms`` or
    ``target_utilization``); unknown fields raise ``TypeError`` via
    ``dataclasses.replace``.
    """
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown cluster preset {name!r}; known presets: {sorted(PRESETS)}")
    spec = factory()
    if overrides:
        spec = replace(spec, **overrides)
    return spec


class SnapshotGenerator:
    """Generate :class:`ClusterState` snapshots according to a :class:`ClusterSpec`."""

    def __init__(self, spec: ClusterSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        if spec.multi_resource:
            self.catalog = VMTypeCatalog.multi_resource()
            weights = dict(DEFAULT_VM_TYPE_WEIGHTS)
            weights.update(MULTI_RESOURCE_EXTRA_WEIGHTS)
        else:
            self.catalog = VMTypeCatalog.main()
            weights = dict(DEFAULT_VM_TYPE_WEIGHTS)
        self._vm_types = [self.catalog.get(name) for name in weights if name in self.catalog]
        probs = np.array([weights[t.name] for t in self._vm_types], dtype=float)
        self._vm_type_probs = probs / probs.sum()

    # ------------------------------------------------------------------ #
    def generate(self, rng: Optional[np.random.Generator] = None) -> ClusterState:
        """Generate one snapshot (one "mapping" in the paper's terminology)."""
        rng = rng if rng is not None else self._rng
        spec = self.spec
        pms = self._build_pms(rng)
        state = ClusterState(pms=pms, vms=[], fragment_cores=spec.fragment_cores)

        utilization = float(
            np.clip(
                rng.normal(spec.target_utilization, spec.utilization_jitter),
                0.05,
                0.97,
            )
        )
        total_cpu = sum(pm.cpu_capacity for pm in pms)
        # Overshoot the CPU target so that post-churn utilization lands near it.
        target_cpu = utilization * total_cpu / (1.0 - spec.churn_fraction)

        next_vm_id = 0
        placed_cpu = 0.0
        failures = 0
        while placed_cpu < target_cpu and failures < 50:
            vm_type = self._sample_vm_type(rng)
            vm = VirtualMachine(vm_id=next_vm_id, vm_type=vm_type)
            placement = self._choose_placement(state, vm, rng)
            if placement is None:
                failures += 1
                continue
            state.add_vm(vm, placement)
            placed_cpu += vm_type.cpu
            next_vm_id += 1
            failures = 0

        self._apply_churn(state, rng)

        if spec.affinity_groups > 0 and spec.affinity_group_size >= 2:
            assign_anti_affinity_groups(
                state, spec.affinity_groups, spec.affinity_group_size, rng
            )
        return state

    def generate_many(self, count: int) -> List[ClusterState]:
        """Generate ``count`` independent snapshots."""
        if count <= 0:
            raise ValueError("count must be positive")
        return [self.generate() for _ in range(count)]

    # ------------------------------------------------------------------ #
    def _build_pms(self, rng: np.random.Generator) -> List[PhysicalMachine]:
        spec = self.spec
        weights = np.array(spec.pm_type_weights, dtype=float)
        weights = weights / weights.sum()
        type_indices = rng.choice(len(spec.pm_types), size=spec.num_pms, p=weights)
        return [
            PhysicalMachine(pm_id=pm_id, pm_type=spec.pm_types[type_index])
            for pm_id, type_index in enumerate(type_indices)
        ]

    def _sample_vm_type(self, rng: np.random.Generator) -> VMType:
        index = rng.choice(len(self._vm_types), p=self._vm_type_probs)
        return self._vm_types[index]

    def _choose_placement(
        self, state: ClusterState, vm: VirtualMachine, rng: np.random.Generator
    ) -> Optional[Placement]:
        """Mix best-fit (production VMS) and random-fit placements."""
        if rng.random() < self.spec.best_fit_fraction:
            return best_fit_placement(state, vm)
        # Random fit: pick a random feasible (PM, NUMA) pair.
        fits, numas = landing_slots(state, vm)
        candidates = np.flatnonzero(fits)
        if not candidates.size:
            return None
        pick = int(candidates[rng.integers(len(candidates))])
        return Placement(
            pm_id=state.sorted_pm_ids()[pick // len(numas)], numa_id=numas[pick % len(numas)]
        )

    def _apply_churn(self, state: ClusterState, rng: np.random.Generator) -> None:
        """Remove a fraction of VMs to carve the release-holes VMR must repair."""
        if self.spec.churn_fraction <= 0:
            return
        placed = state.placed_vm_ids()
        num_remove = int(len(placed) * self.spec.churn_fraction)
        if num_remove == 0:
            return
        to_remove = rng.choice(placed, size=num_remove, replace=False)
        for vm_id in to_remove:
            state.remove_vm_from_cluster(int(vm_id))
