"""Bridging layer between environment observations and the neural extractors.

The feature extractors of §3.3 need two things derived from an
:class:`~repro.env.observation.Observation`:

* the raw PM / VM feature matrices as autograd tensors, and
* the *trees* implementing the sparse local attention (a PM and the VMs it
  hosts form a depth-one tree; attention is only allowed inside a tree),
  carried as each VM's host row and run as padded per-tree groups
  (:class:`TreeGrouping`).

Masks and host rows are plain numpy arrays — they carry no gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..env.observation import Observation
from ..nn import AttentionMask, Module, Tensor, concatenate

#: One observation's trees: every local sequence position tree by tree, and
#: each tree's member count (see :func:`_row_tree_layout`).
TreeLayout = Tuple[np.ndarray, np.ndarray]


@dataclass
class FeatureBatch:
    """Feature arrays and tree structure for a stack of same-size decision steps.

    Every batch is stacked: ``(batch, machines, features)`` arrays and
    ``(batch, num_vms)`` hosts, one row per observation.
    :func:`build_feature_batch` makes a batch of one (what the rollout
    buffer keeps per transition, with its tree layout cached on it) and
    :func:`stack_feature_batches` concatenates batches along axis 0.
    Batched attention keeps rows independent, so one extractor forward
    equals running each row separately.
    """

    pm_features: np.ndarray
    vm_features: np.ndarray
    #: (batch, num_vms) host PM row of each VM, ``-1`` when unplaced — for a
    #: batch of one a view of the observation's ``vm_source_pm``, never
    #: written.
    hosts: np.ndarray
    num_pms: int
    num_vms: int
    #: Lazily-built grouped layout for sparse tree attention.
    _tree_grouping: Optional["TreeGrouping"] = field(default=None, repr=False)
    #: Per-row tree layouts: built once per row (the host assignment is fixed
    #: once collected) and carried over by :func:`stack_feature_batches`, so
    #: regrouping a minibatch only offsets and buckets them.
    _tree_layouts: Optional[List[TreeLayout]] = field(default=None, repr=False)

    @property
    def sequence_length(self) -> int:
        return self.num_pms + self.num_vms

    def tree_layout(self, row: int) -> TreeLayout:
        """Row ``row``'s ``(positions, sizes)`` tree layout (cached)."""
        return self._layouts()[row]

    def tree_grouping(self) -> Optional["TreeGrouping"]:
        """Grouped per-tree layout for the sparse tree-attention stage.

        Built lazily and cached on the batch, so every extractor block of a
        forward reuses one grouping.  A stacked minibatch is a fresh batch
        (:func:`stack_feature_batches`), so each minibatch of each epoch
        buckets its rows' cached layouts anew.  Returns ``None`` only when
        there are no VMs (no tree stage to run).
        """
        if self.num_vms == 0:
            return None
        if self._tree_grouping is None:
            self._tree_grouping = _grouping_from_layouts(self._layouts(), self.sequence_length)
        return self._tree_grouping

    def _layouts(self) -> List[TreeLayout]:
        if self._tree_layouts is None:
            self._tree_layouts = [_row_tree_layout(hosts, self.num_pms) for hosts in self.hosts]
        return self._tree_layouts


def build_feature_batch(observation: Observation) -> FeatureBatch:
    """A batch of one: views of the observation's feature arrays plus its host rows."""
    return FeatureBatch(
        pm_features=observation.pm_features[None],
        vm_features=observation.vm_features[None],
        hosts=observation.vm_source_pm[None],
        num_pms=observation.num_pms,
        num_vms=observation.num_vms,
    )


class TreeBucket:
    """One padded size-class of trees: gather indices plus the padding mask."""

    __slots__ = ("members", "valid", "attention_mask")

    def __init__(self, members: np.ndarray, valid: np.ndarray) -> None:
        self.members = members  # (groups, size) flat row positions
        self.valid = valid  # (groups, size) real-member indicator
        self.attention_mask = AttentionMask(valid[:, :, None] & valid[:, None, :])


class TreeGrouping:
    """Padded per-tree layout exploiting the block structure of tree attention.

    The host rows partition the combined [PMs..., VMs...] sequence of every
    batch row into disjoint trees — a PM with its hosted VMs, or an unplaced
    VM alone — and attention within a tree is *full*.  Only the score core
    needs the trees side by side: :meth:`apply` runs an encoder layer's
    per-row work (norms, projections, residuals, feed-forward) on the real
    rows and gathers just q, k and v into padded ``(num_trees, tree_size)``
    groups for one masked attention node per bucket.  A dense ``S×S`` tree
    mask (the parity tests' oracle) costs ``O(S²)`` scores per row; the
    grouped core ``O(Σ tree_size²)`` — typically an order of magnitude less.
    Trees are split into size-class buckets (:func:`_bucket_widths`), so a
    few large trees do not inflate the padding of every small one.

    Exactness invariants: trees are disjoint and ordered [PM, VMs ascending],
    matching the dense row order, padding keys are excluded by the additive
    bias (exactly zero weight and gradient), and padded slots gather row 0
    but pass back no gradient: the context scatter never reads them, and the
    q/k/v gathers return only the valid slots' gradients.
    """

    __slots__ = ("buckets", "inverse")

    def __init__(self, buckets: Sequence[TreeBucket], inverse: np.ndarray) -> None:
        self.buckets = list(buckets)
        self.inverse = inverse  # (rows,) slot of each row in the concatenated buckets

    def apply(self, layer: Module, x: Tensor) -> Tensor:
        """Run encoder ``layer`` tree-locally over ``x``; its leading axes,
        flattened, are the rows the buckets index."""
        dim = x.shape[-1]
        flat = x.reshape(-1, dim)
        attention = layer.attention
        normed = layer.norm1(flat)
        projected = (
            attention._scaled_queries(normed), attention.k_proj(normed), attention.v_proj(normed)
        )
        contexts = []
        for bucket in self.buckets:
            groups, size = bucket.members.shape
            index, valid = bucket.members.reshape(-1), bucket.valid.reshape(-1)
            q, k, v = (
                _gather_rows(rows, index, valid).reshape(groups, size, dim) for rows in projected
            )
            context = attention.attend(q, k, v, bucket.attention_mask)
            contexts.append(context.reshape(groups * size, dim))
        context = contexts[0] if len(contexts) == 1 else concatenate(contexts, axis=0)
        attended = attention.out_proj(_gather_rows(context, self.inverse))
        return layer._residual_feed_forward(flat, attended).reshape(x.shape)


def _gather_rows(
    source: Tensor, indices: np.ndarray, valid: Optional[np.ndarray] = None
) -> Tensor:
    """Row gather whose backward is a direct (unbuffered) scatter assignment.

    Requires the grouping invariant that each source row is referenced by at
    most one *valid* slot: with ``valid`` given, invalid (padding) slots may
    duplicate rows but are guaranteed to carry exactly zero gradient, so the
    backward assigns only the valid slots' gradients; with ``valid`` omitted
    the indices themselves must be unique (the inverse scatter).  Either way
    the generic ``np.add.at`` element-wise scatter — by far the slowest part
    of a fancy-index backward — is avoided.
    """
    out_data = source.data[indices]
    if not source.requires_grad:
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(source.data)
        if valid is None:
            full[indices] = grad
        else:
            full[indices[valid]] = grad[valid]
        source._accumulate(full)

    return Tensor(out_data, requires_grad=True, parents=(source,), backward=backward)


def _row_tree_layout(hosts: np.ndarray, num_pms: int) -> TreeLayout:
    """One observation's trees as ``(positions, sizes)``.

    ``positions`` lists every *local* sequence position tree by tree, in
    dense row order — each PM's tree (the PM, then its hosted VMs ascending)
    by PM row, then a singleton tree per unplaced VM — and ``sizes`` holds
    each tree's member count.  Cached per transition (the host assignment
    never changes after collection); stacking into a minibatch only adds row
    offsets.
    """
    unplaced = hosts < 0
    # Tree id of every position: a PM's row, a VM's host, or past the PMs
    # for an unplaced VM; a stable sort keeps each tree's positions ascending.
    tree = np.concatenate(
        [np.arange(num_pms), np.where(unplaced, num_pms + np.cumsum(unplaced) - 1, hosts)]
    )
    return np.argsort(tree, kind="stable"), np.bincount(tree)


def _grouping(positions: np.ndarray, sizes: np.ndarray, widths: Sequence[int]) -> TreeGrouping:
    """Bucket the trees (``positions`` tree by tree, ``sizes`` members each)
    into padded groups, each tree in the narrowest of ``widths`` that fits."""
    slots = np.searchsorted(widths, sizes)
    inverse = np.empty(positions.size, dtype=np.intp)
    buckets, offset = [], 0
    for slot in np.unique(slots):
        chosen = slots == slot
        valid = np.arange(widths[slot]) < sizes[chosen, None]
        members = np.zeros(valid.shape, dtype=np.intp)
        members[valid] = positions[np.repeat(chosen, sizes)]
        inverse[members[valid]] = offset + np.flatnonzero(valid)
        buckets.append(TreeBucket(members=members, valid=valid))
        offset += members.size
    return TreeGrouping(buckets=buckets, inverse=inverse)


def _grouping_from_layouts(layouts: Sequence[TreeLayout], seq: int) -> TreeGrouping:
    """Offset cached per-row layouts into one flat grouping and bucket it."""
    positions = np.concatenate([local + row * seq for row, (local, _) in enumerate(layouts)])
    sizes = np.concatenate([row_sizes for _, row_sizes in layouts])
    return _grouping(positions, sizes, _bucket_widths(sizes))


#: What one more bucket costs, in padded scores.  Measured (1 BLAS thread):
#: ~800 scores' work no-grad at 900 VMs, more with gradients (each bucket's
#: q/k/v gathers scatter full-size gradients), where narrow buckets also save
#: more than their area says; the StepCache's dirty-tree pass pays each extra
#: width again on every cached step.  4000 picks the fastest of the splits
#: tried on each e2e shape and on a 32-row training minibatch.
_BUCKET_SCORES = 4000


def _bucket_widths(sizes: np.ndarray) -> List[int]:
    """Bucket widths minimizing the padded score area plus
    :data:`_BUCKET_SCORES` per bucket.

    A bucket takes a run of the sorted tree sizes, padded to the widest; the
    exact split is a small dynamic program over the distinct sizes.
    """
    widths, counts = np.unique(sizes, return_counts=True)
    widths, below = widths.tolist(), [0, *np.cumsum(counts).tolist()]
    # cost[j]: cheapest bucketing of the trees of the j narrowest sizes;
    # start[j]: where its widest bucket begins.
    cost, start = [0], [0]
    for j, width in enumerate(widths, 1):
        options = [cost[i] + (below[j] - below[i]) * width * width for i in range(j)]
        i = options.index(min(options))
        cost.append(options[i] + _BUCKET_SCORES)
        start.append(i)
    chosen, j = [], len(widths)
    while j:
        chosen.append(widths[j - 1])
        j = start[j]
    return chosen[::-1]


def stack_feature_batches(batches: Sequence[FeatureBatch]) -> FeatureBatch:
    """Concatenate same-size batches along the batch axis.

    The PPO update caches one :class:`FeatureBatch` per stored transition
    (featurization and tree layouts happen once per rollout); each
    minibatch then concatenates the cached arrays here instead of
    re-deriving trees from the observations every epoch × minibatch.  A
    single batch is returned as it is.
    """
    if not batches:
        raise ValueError("need at least one feature batch")
    sizes = {(batch.num_pms, batch.num_vms) for batch in batches}
    if len(sizes) > 1:
        raise ValueError(f"feature batches disagree on cluster size: {sorted(sizes)}")
    if len(batches) == 1:
        return batches[0]
    # Carry the cached per-row tree layouts (built once per transition) so
    # the minibatch grouping only offsets and buckets them.
    layouts = (
        [layout for batch in batches for layout in batch._layouts()]
        if batches[0].num_vms
        else None
    )
    return FeatureBatch(
        pm_features=np.concatenate([b.pm_features for b in batches]),
        vm_features=np.concatenate([b.vm_features for b in batches]),
        hosts=np.concatenate([b.hosts for b in batches]),
        num_pms=batches[0].num_pms,
        num_vms=batches[0].num_vms,
        _tree_layouts=layouts,
    )
