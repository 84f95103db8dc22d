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

#: Chain ids for incremental observation builds (process-unique so step-cache
#: entries from different builders/episodes can never collide).
_CHAIN_IDS = itertools.count(1)


@dataclass
class ObservationDelta:
    """Row-level diff of an observation against the previous one in a chain.

    Incremental builds form *chains*: the builder assigns a fresh
    ``chain_id`` on every full rebuild (episode start, structural change,
    stale journal) and bumps ``step_index`` once per subsequent build.  A
    consumer holding derived state for ``(chain_id, step_index - 1)`` may
    update just the listed rows; anything else must recompute from scratch.

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
        Diff against the previous observation of the same episode chain, set
        by incremental :class:`ObservationBuilder` builds; ``None`` means "no
        usable previous step" (full rebuild).  The encoder step cache
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
    """Featurization carried between consecutive builds of one episode.

    ``raw_pm`` / ``raw_vm`` are patched *in place* by incremental builds;
    the normalized matrices are reallocated each build (consumers hold the
    previous step's observation arrays) and compared exactly to produce the
    delta.  Validity is keyed on the identity of the live SoA view plus its
    mutation-journal version.
    """

    soa: object
    version: int
    raw_pm: np.ndarray
    raw_vm: np.ndarray
    norm_pm: np.ndarray
    norm_vm: np.ndarray
    vm_source_pm: np.ndarray
    chain_id: int
    step_index: int

    def shapes_match(self, soa) -> bool:
        return (
            self.raw_pm.shape[0] == soa.num_pms
            and self.raw_vm.shape[0] == soa.num_vms
        )


class ObservationBuilder:
    """Build :class:`Observation` objects from cluster states."""

    def __init__(
        self,
        checker: Optional[ConstraintChecker] = None,
        fragment_cores: int = 16,
    ) -> None:
        self.checker = checker or ConstraintChecker()
        self.fragment_cores = fragment_cores
        #: Incremental-build cache: raw + normalized features of the last
        #: build, keyed on the identity of the SoA view it was derived from.
        self._cache: Optional[_BuilderCache] = None

    # ------------------------------------------------------------------ #
    def build(self, state: ClusterState, migrations_left: int) -> Observation:
        """Featurize ``state`` using sliced array ops over the SoA view.

        Consecutive builds against the *same live* SoA view patch only the
        feature rows the mutation journal marks dirty (a migration touches
        one VM and two PMs) instead of refeaturizing the whole cluster, then
        renormalize — normalization is a cheap full-matrix op and keeping it
        global makes patched builds exactly equal to fresh ones.  The
        resulting observation carries an :class:`ObservationDelta`; any state
        the journal cannot vouch for (new episode, structural change, stale
        journal) falls back to a full rebuild that starts a new chain.
        """
        soa = state.arrays()
        cache = self._cache
        dirty = None
        if cache is not None and cache.soa is soa and cache.shapes_match(soa):
            dirty = soa.dirty_since(cache.version)
        if dirty is None:
            return self._build_full(state, soa, migrations_left)
        return self._build_incremental(state, soa, migrations_left, dirty)

    def _build_full(self, state: ClusterState, soa, migrations_left: int) -> Observation:
        raw_pm = self._pm_features_arrays(soa)
        raw_vm, vm_source_pm = self._vm_features_arrays(soa, raw_pm)
        vm_mask = self.checker.movable_vm_mask(state)

        pm_features = _min_max_normalize(raw_pm)
        vm_features = _min_max_normalize(raw_vm)
        self._cache = _BuilderCache(
            soa=soa,
            version=soa.version,
            raw_pm=raw_pm,
            raw_vm=raw_vm,
            norm_pm=pm_features,
            norm_vm=vm_features,
            vm_source_pm=vm_source_pm,
            chain_id=next(_CHAIN_IDS),
            step_index=0,
        )
        empty = np.empty(0, dtype=np.intp)
        return Observation(
            pm_features=pm_features,
            vm_features=vm_features,
            vm_source_pm=vm_source_pm,
            vm_mask=vm_mask,
            migrations_left=migrations_left,
            # Step 0 of a fresh chain: everything counts as changed (there is
            # no previous step to patch from), but downstream caches can key
            # their entries on the chain id right away.
            delta=ObservationDelta(
                chain_id=self._cache.chain_id,
                step_index=0,
                changed_pm_rows=np.arange(soa.num_pms, dtype=np.intp),
                changed_vm_rows=np.arange(soa.num_vms, dtype=np.intp),
                moved_vm_rows=empty,
                moved_pm_rows=empty,
            ),
        )

    def _build_incremental(
        self, state: ClusterState, soa, migrations_left: int, dirty
    ) -> Observation:
        """Patch the cached raw features in place, renormalize, and diff."""
        cache = self._cache
        journal_vm_rows, dirty_pm_rows = dirty
        if dirty_pm_rows.size:
            cache.raw_pm[dirty_pm_rows] = self._pm_feature_rows(soa, dirty_pm_rows)
        # A VM row needs repatching when the VM itself moved OR its (old or
        # new) host PM's raw features changed — journalled PM rows cover both
        # hosts of every move, so `vm_pm ∈ dirty_pm_rows` plus the journalled
        # VM rows is exactly the affected set.
        if dirty_pm_rows.size:
            hosted_dirty = np.flatnonzero(np.isin(soa.vm_pm, dirty_pm_rows))
            dirty_vm_rows = np.union1d(journal_vm_rows, hosted_dirty)
        else:
            dirty_vm_rows = journal_vm_rows
        if dirty_vm_rows.size:
            cache.raw_vm[dirty_vm_rows] = self._vm_feature_rows(
                soa, dirty_vm_rows, cache.raw_pm
            )
        placed = soa.vm_pm >= 0
        vm_source_pm = np.where(placed, soa.vm_pm, -1).astype(int)
        moved_vm_rows = np.flatnonzero(vm_source_pm != cache.vm_source_pm)
        moved_pm_rows = np.union1d(
            cache.vm_source_pm[moved_vm_rows], vm_source_pm[moved_vm_rows]
        )
        moved_pm_rows = moved_pm_rows[moved_pm_rows >= 0]

        pm_features = _min_max_normalize(cache.raw_pm)
        vm_features = _min_max_normalize(cache.raw_vm)
        # Changed rows are found by exact comparison of the *normalized*
        # matrices: a migration can move a column's min/max and thereby touch
        # rows far from the mutation, so the delta is measured, not inferred.
        changed_pm_rows = np.flatnonzero((pm_features != cache.norm_pm).any(axis=1))
        changed_vm_rows = np.flatnonzero((vm_features != cache.norm_vm).any(axis=1))
        vm_mask = self.checker.movable_vm_mask(state)

        cache.version = soa.version
        cache.norm_pm = pm_features
        cache.norm_vm = vm_features
        cache.vm_source_pm = vm_source_pm
        cache.step_index += 1
        return Observation(
            pm_features=pm_features,
            vm_features=vm_features,
            vm_source_pm=vm_source_pm,
            vm_mask=vm_mask,
            migrations_left=migrations_left,
            delta=ObservationDelta(
                chain_id=cache.chain_id,
                step_index=cache.step_index,
                changed_pm_rows=changed_pm_rows,
                changed_vm_rows=changed_vm_rows,
                moved_vm_rows=moved_vm_rows,
                moved_pm_rows=moved_pm_rows,
            ),
        )

    # ------------------------------------------------------------------ #
    # Vectorized featurization over the SoA view
    # ------------------------------------------------------------------ #
    def _pm_features_arrays(self, soa) -> np.ndarray:
        """Raw PM feature matrix over every row.

        Thin wrapper over the row-subset builder so the per-row formulas
        exist exactly once — incremental patches and full builds cannot
        drift apart.
        """
        return self._pm_feature_rows(soa, np.arange(soa.num_pms, dtype=np.intp))

    def _vm_features_arrays(self, soa, raw_pm_features: np.ndarray) -> tuple:
        """Raw VM feature matrix plus each VM's host row (``-1`` unplaced).

        Like :meth:`_pm_features_arrays`, delegates to the single row-subset
        implementation of the formulas.
        """
        features = self._vm_feature_rows(
            soa, np.arange(soa.num_vms, dtype=np.intp), raw_pm_features
        )
        placed = soa.vm_pm >= 0
        source_pm = np.where(placed, soa.vm_pm, -1).astype(int)
        return features, source_pm

    # ------------------------------------------------------------------ #
    # Row-subset featurization (incremental builds)
    # ------------------------------------------------------------------ #
    def _pm_feature_rows(self, soa, rows: np.ndarray) -> np.ndarray:
        """Raw PM feature rows for ``rows`` — THE per-row PM formulas.

        Every operation is row-local, so a patched subset is bitwise equal
        to a full rebuild; :meth:`_pm_features_arrays` is this over all
        rows."""
        free_cpu = soa.numa_free_cpu[rows]
        free_mem = soa.numa_free_mem[rows]
        x = self.fragment_cores
        frag = free_cpu % x
        pm_free = free_cpu.sum(axis=1)
        pm_frag = frag.sum(axis=1)
        pm_fr = np.divide(
            pm_frag, pm_free, out=np.zeros_like(pm_frag), where=pm_free > 0
        )
        features = np.zeros((rows.size, PM_FEATURE_DIM), dtype=float)
        for numa_id in range(2):
            offset = numa_id * PM_FEATURES_PER_NUMA
            features[:, offset + 0] = free_cpu[:, numa_id]
            features[:, offset + 1] = free_mem[:, numa_id]
            features[:, offset + 2] = pm_fr
            features[:, offset + 3] = frag[:, numa_id]
        return features

    def _vm_feature_rows(
        self, soa, rows: np.ndarray, raw_pm_features: np.ndarray
    ) -> np.ndarray:
        """Raw VM feature rows for ``rows`` — THE per-row VM formulas
        (``raw_pm_features`` must already hold the *patched* raw PM matrix);
        :meth:`_vm_features_arrays` is this over all rows."""
        features = np.zeros((rows.size, VM_FEATURE_DIM), dtype=float)
        x = self.fragment_cores
        double = soa.vm_double[rows]
        numa = soa.vm_numa[rows]
        slot = np.where(numa >= 0, numa, 0)
        single_idx = np.nonzero(~double)[0]
        features[single_idx, slot[single_idx]] = soa.vm_cpu[rows][single_idx]
        features[single_idx, 2 + slot[single_idx]] = soa.vm_mem[rows][single_idx]
        features[double, 0] = soa.vm_cpu_half[rows][double]
        features[double, 1] = soa.vm_cpu_half[rows][double]
        features[double, 2] = soa.vm_mem_half[rows][double]
        features[double, 3] = soa.vm_mem_half[rows][double]
        features[:, 4] = features[:, 0] % x
        features[:, 5] = features[:, 1] % x
        host = soa.vm_pm[rows]
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
