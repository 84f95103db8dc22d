"""State featurization for the RL agent.

Section 3.1 of the paper defines the observation as two feature sets:

* **PM features** — four features per NUMA node of every PM: remaining CPU,
  remaining memory, the PM's current fragment rate and its fragment size.
  With two NUMAs that is 8 numbers per PM.
* **VM features** — 14 features per VM: requested CPU and memory for each NUMA
  (zeros pad the unused NUMA of single-NUMA VMs), the fragment size the VM
  leaves on each NUMA granularity, concatenated with its source PM's features.

Every feature dimension is min-max normalized.  The observation also carries
the relational information the sparse-attention extractor needs (which VMs sit
on which PM — the "PM tree" of §3.3) and the feasibility masks used by the
two-stage policy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..cluster import ClusterState, ConstraintChecker

PM_FEATURES_PER_NUMA = 4
PM_FEATURE_DIM = 2 * PM_FEATURES_PER_NUMA  # 8
VM_OWN_FEATURE_DIM = 6  # cpu/numa0, cpu/numa1, mem/numa0, mem/numa1, frag0, frag1
VM_FEATURE_DIM = VM_OWN_FEATURE_DIM + PM_FEATURE_DIM  # 14, as in the paper

#: Observation chain ids (process-unique so step-cache entries from different
#: builders/episodes can never collide).
_CHAIN_IDS = itertools.count(1)


@dataclass
class ObservationDelta:
    """Row-level diff of an observation against the previous one in a chain.

    Builds form *chains*: the builder starts a fresh ``chain_id`` whenever
    the state's SoA view is not the one it last built from (episode start,
    ``state.copy()``, a structural change or a group assignment) and bumps
    ``step_index`` once per build on the same view.  A consumer holding
    derived state for ``(chain_id, step_index - 1)`` may update just the
    listed rows; anything else must recompute from scratch.

    ``changed_*_rows`` list rows whose **normalized** features differ from the
    previous observation — normalization is global (min-max per column), so
    these are found by exact comparison after renormalizing, never assumed.
    ``moved_vm_rows`` / ``moved_pm_rows`` track tree-structure changes (a VM's
    source PM changed; the union of its old and new host rows) regardless of
    whether any feature value moved.
    """

    chain_id: int
    step_index: int
    changed_pm_rows: np.ndarray
    changed_vm_rows: np.ndarray
    moved_vm_rows: np.ndarray
    moved_pm_rows: np.ndarray


@dataclass
class Observation:
    """A featurized cluster state handed to the agent.

    Row *i* of the VM arrays is the cluster's *i*-th VM in sorted id order,
    and likewise for PMs: the SoA view keeps its rows sorted by id, so an
    action's row indices resolve through ``state.sorted_vm_ids()`` /
    ``state.sorted_pm_ids()`` (see ``VMRescheduleEnv.step``).

    Attributes
    ----------
    pm_features:
        ``(num_pms, 8)`` array of normalized PM features.
    vm_features:
        ``(num_vms, 14)`` array of normalized VM features.
    vm_source_pm:
        ``(num_vms,)`` index of each VM's source PM (``-1`` if unplaced).
    vm_mask:
        ``(num_vms,)`` boolean — True where the VM is a legal stage-1 candidate.
        The stage-2 mask of a chosen VM comes from the environment
        (``VMRescheduleEnv.pm_action_mask``).
    migrations_left:
        Migrations the episode may still make.
    delta:
        Diff against the previous observation of the same chain, set by every
        :class:`ObservationBuilder` build (step 0 of a chain lists every row
        as changed).  The encoder step cache
        (:class:`repro.core.step_cache.StepCache`) consumes it.
    """

    pm_features: np.ndarray
    vm_features: np.ndarray
    vm_source_pm: np.ndarray
    vm_mask: np.ndarray
    migrations_left: int
    delta: Optional[ObservationDelta] = None

    @property
    def num_pms(self) -> int:
        return self.pm_features.shape[0]

    @property
    def num_vms(self) -> int:
        return self.vm_features.shape[0]


@dataclass
class _BuilderCache:
    """The last build of a chain: what the next build diffs against.

    Valid for one SoA view, by identity; a view's shapes never change (a
    structural change builds a new view).  The matrices are the previous
    observation's own arrays, which builds never write to.
    """

    soa: object
    norm_pm: np.ndarray
    norm_vm: np.ndarray
    vm_source_pm: np.ndarray
    chain_id: int
    step_index: int


class ObservationBuilder:
    """Build :class:`Observation` objects from cluster states."""

    def __init__(self, checker: Optional[ConstraintChecker] = None) -> None:
        self.checker = checker or ConstraintChecker()
        self._cache: Optional[_BuilderCache] = None

    def build(self, state: ClusterState, migrations_left: int) -> Observation:
        """Featurize ``state`` using array ops over the SoA view.

        Every build featurizes every row at the state's ``fragment_cores``
        granularity and normalizes.  A build on the view the previous one
        used diffs against it: changed rows by exact comparison of the
        *normalized* matrices (a migration can move a column's min/max and
        thereby touch rows far from it, so the delta is measured, not
        inferred), moved rows from each VM's source PM.  Any other view
        starts a new chain.
        """
        soa = state.arrays()
        raw_pm = _pm_features(soa, state.fragment_cores)
        pm_features = _min_max_normalize(raw_pm)
        vm_features = _min_max_normalize(_vm_features(soa, raw_pm, state.fragment_cores))
        vm_source_pm = soa.vm_pm.astype(int)
        cache = self._cache
        if cache is None or cache.soa is not soa:
            chain_id, step_index = next(_CHAIN_IDS), 0
            changed_pm_rows = np.arange(soa.num_pms, dtype=np.intp)
            changed_vm_rows = np.arange(soa.num_vms, dtype=np.intp)
            moved_vm_rows = moved_pm_rows = np.empty(0, dtype=np.intp)
        else:
            moved_vm_rows = np.flatnonzero(vm_source_pm != cache.vm_source_pm)
            moved_pm_rows = np.union1d(
                cache.vm_source_pm[moved_vm_rows], vm_source_pm[moved_vm_rows]
            )
            moved_pm_rows = moved_pm_rows[moved_pm_rows >= 0]
            changed_pm_rows = np.flatnonzero((pm_features != cache.norm_pm).any(axis=1))
            changed_vm_rows = np.flatnonzero((vm_features != cache.norm_vm).any(axis=1))
            chain_id, step_index = cache.chain_id, cache.step_index + 1
        self._cache = _BuilderCache(
            soa, pm_features, vm_features, vm_source_pm, chain_id, step_index
        )
        return Observation(
            pm_features=pm_features,
            vm_features=vm_features,
            vm_source_pm=vm_source_pm,
            vm_mask=self.checker.movable_vm_mask(state),
            migrations_left=migrations_left,
            delta=ObservationDelta(
                chain_id=chain_id,
                step_index=step_index,
                changed_pm_rows=changed_pm_rows,
                changed_vm_rows=changed_vm_rows,
                moved_vm_rows=moved_vm_rows,
                moved_pm_rows=moved_pm_rows,
            ),
        )


# ---------------------------------------------------------------------- #
# Vectorized featurization over the SoA view
# ---------------------------------------------------------------------- #
def _pm_features(soa, fragment_cores: int) -> np.ndarray:
    """Raw ``(num_pms, 8)`` PM features: per NUMA, free CPU and memory, the
    PM's fragment rate and the NUMA's fragment at ``fragment_cores``."""
    free_cpu = soa.numa_free_cpu
    free_mem = soa.numa_free_mem
    frag = free_cpu % fragment_cores
    pm_free = free_cpu.sum(axis=1)
    pm_frag = frag.sum(axis=1)
    pm_fr = np.divide(pm_frag, pm_free, out=np.zeros_like(pm_frag), where=pm_free > 0)
    features = np.zeros((soa.num_pms, PM_FEATURE_DIM), dtype=float)
    for numa_id in range(2):
        offset = numa_id * PM_FEATURES_PER_NUMA
        features[:, offset + 0] = free_cpu[:, numa_id]
        features[:, offset + 1] = free_mem[:, numa_id]
        features[:, offset + 2] = pm_fr
        features[:, offset + 3] = frag[:, numa_id]
    return features


def _vm_features(soa, raw_pm_features: np.ndarray, fragment_cores: int) -> np.ndarray:
    """Raw ``(num_vms, 14)`` VM features: the request per NUMA, the fragment
    it leaves per NUMA, then the source PM's raw features (zeros if unplaced)."""
    features = np.zeros((soa.num_vms, VM_FEATURE_DIM), dtype=float)
    double = soa.vm_double
    slot = np.where(soa.vm_numa >= 0, soa.vm_numa, 0)
    single_idx = np.nonzero(~double)[0]
    features[single_idx, slot[single_idx]] = soa.vm_cpu[single_idx]
    features[single_idx, 2 + slot[single_idx]] = soa.vm_mem[single_idx]
    features[double, 0] = soa.vm_cpu_half[double]
    features[double, 1] = soa.vm_cpu_half[double]
    features[double, 2] = soa.vm_mem_half[double]
    features[double, 3] = soa.vm_mem_half[double]
    features[:, 4] = features[:, 0] % fragment_cores
    features[:, 5] = features[:, 1] % fragment_cores
    host = soa.vm_pm
    placed = host >= 0
    features[placed, VM_OWN_FEATURE_DIM:] = raw_pm_features[host[placed]]
    return features


def _min_max_normalize(features: np.ndarray) -> np.ndarray:
    """Min-max normalize each feature column to [0, 1] (constant columns → 0)."""
    if features.size == 0:
        return features
    mins = features.min(axis=0, keepdims=True)
    maxs = features.max(axis=0, keepdims=True)
    span = maxs - mins
    span[span == 0.0] = 1.0
    return (features - mins) / span
