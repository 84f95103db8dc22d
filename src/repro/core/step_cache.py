"""Step-incremental encoder cache for greedy/serving rollouts.

A greedy plan rollout changes one VM and two PMs per step, yet the seed
inference path re-featurized and re-encoded the *entire* cluster every step.
:class:`StepCache` carries the step-local parts of the extractor forward
between consecutive steps of ``act_batch`` / ``plan_batch``:

* the input embeddings (``pm_embed`` / ``vm_embed`` MLP rows — per-row pure,
  so only rows whose normalized features changed recompute),
* the **first block's tree-local attention stage** — tree-local attention
  mixes only the members of one PM tree, so only *dirty trees* (trees
  containing a changed row, or whose membership changed) re-run: their
  rows alone go through :meth:`~repro.core.features.TreeGrouping.apply`,
  padded to the full pass's bucket widths, and
* the **first block's dense VM↔VM self-attention** — not its ``V×V`` weights
  but their softmax state (:class:`~repro.nn.attention.AttentionState`: q, k,
  v, context, and each row's score maximum and sum of exponentials, O(V·dim)).
  The VM rows of the dirty trees are the only inputs of that stage that
  changed, so every clean row's numerator and denominator are corrected for
  the changed keys alone — their old exponentials subtracted, their new ones
  added, against the stored maximum — and only the changed rows are scored
  against every key.  Subtraction is safe because the kernel checks it: a row
  that would lose more than half its sum, or gain a key far above its stored
  maximum, is rescored in full with the changed rows.  The update is taken
  only when every stacked row is a chain hit and few enough rows changed for
  it to pay (see ``repro.nn.attention._UPDATE_ROW_SCORES``); otherwise — the
  first step of an episode, a cluster-wide renormalisation — the full kernel
  runs and re-seeds the state; clusters of ≲ 150 VMs, where no update can
  pay, keep no state and run the plain forward.

Everything downstream always re-runs: block 0's PM self-attention and
cross-attention (every VM row is dirty after the VM↔VM stage), all of the
later blocks, the final norms and the actor/critic heads.

Validity and exactness
----------------------
Cache entries are keyed on the :class:`~repro.env.observation.ObservationDelta`
chain: the builder starts a fresh chain on any SoA view but its last one and
bumps ``step_index`` per build on the same view, so an entry is consulted only
when it holds exactly the previous step of the same episode.  Changed rows come
from *exact comparison* of normalized feature matrices (never inferred), so a
cached forward computes the same function as a fresh one; clean-tree outputs
are reused from the previous step, where they were computed from bitwise-equal
inputs (bucket re-padding after a move can shift results by ~1e-16 relative,
an updated VM↔VM row differs from a rescored one by a few 1e-15 — the
step-cache parity suite pins embeddings to 1e-10 and plans to equality).
The cache is inference-only: :meth:`usable` refuses gradient-tracking
forwards, and entries never alias tensors a training graph could retain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..env.observation import Observation
from ..nn import AttentionState, Tensor, grad_enabled
from .attention import ExtractorOutput, SparseAttentionExtractor
from .features import (
    FeatureBatch,
    TreeLayout,
    _grouping,
    build_feature_batch,
    stack_feature_batches,
)


@dataclass
class _ChainEntry:
    """Per-episode-chain state carried between consecutive steps."""

    step_index: int
    #: Input embeddings (pm_embed / vm_embed outputs): row views of the
    #: step's stacked array, copied forward and patched by the next step.
    h_pm: np.ndarray
    h_vm: np.ndarray
    #: Block-0 tree-stage output over the combined [PMs..., VMs...] sequence
    #: (``None`` when the extractor has no tree stage or the row has no VMs).
    stage1: Optional[np.ndarray]
    #: Block-0 VM↔VM softmax state of this row (``None`` without VMs, or
    #: with too few for an update ever to pay).
    vm_attention: Optional[AttentionState]


class StepCache:
    """Carries first-block encoder state across decision steps.

    One instance serves one rollout driver (a ``plan_batch`` call, an
    evaluation loop); entries for many concurrent episodes coexist, keyed by
    their observation chain.  All methods must run under ``repro.nn.no_grad``
    — gate call sites on :meth:`usable`.
    """

    def __init__(self, max_chains: int = 128) -> None:
        self.max_chains = max_chains
        self._entries: Dict[int, _ChainEntry] = {}
        self.hits = 0
        self.misses = 0
        #: Rows whose block-0 VM↔VM stage was updated from the previous
        #: step's softmax state / ran the full kernel.
        self.vv_updated = 0
        self.vv_full = 0

    # ------------------------------------------------------------------ #
    def usable(self, extractor) -> bool:
        """Whether cached encoding applies: attention extractor, no-grad."""
        return isinstance(extractor, SparseAttentionExtractor) and not grad_enabled()

    def forward(
        self,
        extractor: SparseAttentionExtractor,
        observations: Sequence[Observation],
    ) -> Tuple[FeatureBatch, ExtractorOutput]:
        """Cached equivalent of ``extractor(stack_feature_batches([
        build_feature_batch(o) for o in observations]))`` for same-size
        observations (one row or many).

        Per row: a chain hit patches that row's embeddings/tree outputs; a
        miss (fresh episode admitted into the batch, stale chain) computes
        the row from scratch.  All rows' dirty trees run in ONE bucketed
        tree-layer pass, and the global stages run stacked as usual.
        """
        stacked = stack_feature_batches([build_feature_batch(obs) for obs in observations])
        pm_x, vm_x = extractor.input_arrays(stacked)
        dtype = pm_x.dtype
        entries = [self._lookup(obs, dtype) for obs in observations]
        num_pms, num_vms = stacked.num_pms, stacked.num_vms
        seq = num_pms + num_vms
        dim = extractor.config.embed_dim
        count = len(observations)

        h = np.empty((count, seq, dim), dtype=dtype)
        # VM rows whose block-0 stage-1 output differs from the entry's step.
        vm_changed = np.ones((count, num_vms), dtype=bool)
        for row, (obs, entry) in enumerate(zip(observations, entries)):
            if entry is not None:
                self.hits += 1
                h[row, :num_pms] = entry.h_pm
                h[row, num_pms:] = entry.h_vm
                delta = obs.delta
                vm_changed[row] = False
                vm_changed[row, delta.changed_vm_rows] = True
                if delta.changed_pm_rows.size:
                    h[row, delta.changed_pm_rows] = extractor.pm_embed(
                        Tensor(pm_x[row, delta.changed_pm_rows])
                    ).data
                if delta.changed_vm_rows.size:
                    h[row, num_pms + delta.changed_vm_rows] = extractor.vm_embed(
                        Tensor(vm_x[row, delta.changed_vm_rows])
                    ).data
            else:
                self.misses += 1
                h[row, :num_pms] = extractor.pm_embed(Tensor(pm_x[row])).data
                h[row, num_pms:] = extractor.vm_embed(Tensor(vm_x[row])).data

        grouping = (
            stacked.tree_grouping()
            if extractor.use_tree_attention and num_vms
            else None
        )
        if grouping is None:
            stage1_rows = None
            pm1, vm1 = h[:, :num_pms], h[:, num_pms:]
        else:
            flat = h.reshape(count * seq, dim)
            stage1 = np.empty_like(flat)
            positions, sizes = [], []
            for row, (obs, entry) in enumerate(zip(observations, entries)):
                offset = row * seq
                layout = stacked.tree_layout(row)
                if entry is not None and entry.stage1 is not None and (
                    entry.stage1.shape == (seq, dim)
                ):
                    stage1[offset : offset + seq] = entry.stage1
                    row_positions, row_sizes = self._dirty_trees(layout, obs)
                    vm_changed[row, row_positions[row_positions >= num_pms] - num_pms] = True
                else:
                    row_positions, row_sizes = layout
                    vm_changed[row] = True
                positions.append(row_positions + offset)
                sizes.append(row_sizes)
            rerun = np.concatenate(positions)
            if rerun.size:
                # The rerun trees' rows, compacted and padded to the full
                # pass's bucket widths so their scores match what it computes.
                subset = _grouping(
                    np.arange(rerun.size), np.concatenate(sizes),
                    [bucket.members.shape[1] for bucket in grouping.buckets],
                )
                layer = extractor.blocks[0].tree_attention
                stage1[rerun] = subset.apply(layer, Tensor(flat[rerun])).data
            stage1_rows = stage1.reshape(count, seq, dim)
            pm1, vm1 = stage1_rows[:, :num_pms], stage1_rows[:, num_pms:]

        vm_states = [None if entry is None else entry.vm_attention for entry in entries]
        # The update needs every stacked row's state; one miss re-seeds them all.
        output, vm_state = extractor.finish(
            Tensor(pm1), Tensor(vm1), grouping,
            None if None in vm_states else vm_states, vm_changed,
        )
        if vm_state is not None and vm_state.recomputed < num_vms:
            self.vv_updated += count
        elif num_vms:
            self.vv_full += count
        for row, obs in enumerate(observations):
            if obs.delta is None:
                continue
            self._store(
                obs.delta.chain_id,
                _ChainEntry(
                    step_index=obs.delta.step_index,
                    # Disjoint row views of this step's arrays: safe to keep
                    # without copying (the next step copies them forward).
                    h_pm=h[row, :num_pms],
                    h_vm=h[row, num_pms:],
                    stage1=None if stage1_rows is None else stage1_rows[row],
                    vm_attention=None if vm_state is None else vm_state.row(row),
                ),
            )
        return stacked, output

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _lookup(self, observation: Observation, dtype) -> Optional[_ChainEntry]:
        delta = observation.delta
        if delta is None:
            return None
        entry = self._entries.get(delta.chain_id)
        if entry is None:
            return None
        if (
            entry.step_index != delta.step_index - 1
            or entry.h_pm.shape[0] != observation.num_pms
            or entry.h_vm.shape[0] != observation.num_vms
            or entry.h_pm.dtype != dtype
        ):
            return None
        return entry

    @staticmethod
    def _dirty_trees(layout: TreeLayout, observation: Observation) -> TreeLayout:
        """The ``(positions, sizes)`` of the trees of the observation's
        ``layout`` whose stage-1 output must re-run for this step.

        A tree is dirty when any member row's embedding changed or its
        membership changed: PM trees are numbered by PM row (the layout lists
        them first), placed VMs dirty their host's tree, unplaced VMs their
        singleton tree.  ``moved_pm_rows`` covers both endpoints of every
        migration even when feature values happen to be unchanged.
        """
        delta = observation.delta
        positions, sizes = layout
        hosts = observation.vm_source_pm
        vm_rows = np.union1d(delta.changed_vm_rows, delta.moved_vm_rows).astype(np.intp)
        # Unplaced VMs' singleton trees follow the PMs' in row order.
        tree_of_vm = np.where(
            hosts >= 0, hosts, observation.num_pms + np.cumsum(hosts < 0) - 1
        )
        dirty = np.zeros(sizes.size, dtype=bool)
        dirty[delta.changed_pm_rows] = True
        dirty[delta.moved_pm_rows] = True
        dirty[tree_of_vm[vm_rows]] = True
        return positions[np.repeat(dirty, sizes)], sizes[dirty]

    def _store(self, chain_id: int, entry: _ChainEntry) -> None:
        entries = self._entries
        entries.pop(chain_id, None)  # move-to-end: keep live chains resident
        entries[chain_id] = entry
        if len(entries) > self.max_chains:
            for key in list(entries.keys())[: len(entries) - self.max_chains]:
                del entries[key]

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "chains": len(self._entries),
            "vv_updated": self.vv_updated,
            "vv_full": self.vv_full,
        }
