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
from typing import Optional, Sequence

import numpy as np

from ..env.observation import Observation
from ..nn import AttentionMask, Module, Tensor, concatenate


@dataclass
class FeatureBatch:
    """Tensors and tree structure for one decision step.

    A single-row batch (2-D feature tensors, ``batch_size`` None) is the unit
    of featurization: it is what the rollout buffer and the step cache keep
    per observation, with its tree layout cached on it.  The policy forward
    consumes *stacked* batches (:func:`stack_feature_batches`) — several
    same-size rows along a leading batch axis: ``batch_size`` set,
    ``(batch, machines, features)`` tensors, ``(batch, num_vms)`` hosts.
    Batched attention keeps batch items independent, so one extractor
    forward equals running each row separately; handed a single-row batch,
    an extractor lifts it to a batch of one.
    """

    pm_features: Tensor
    vm_features: Tensor
    #: (num_vms,) host PM row of each VM, ``-1`` when unplaced — the
    #: observation's ``vm_source_pm``, shared and never written; leading
    #: batch axis when stacked.
    hosts: np.ndarray
    vm_mask: np.ndarray
    num_pms: int
    num_vms: int
    #: Number of stacked observations, or None for a single observation.
    batch_size: Optional[int] = None
    #: Lazily-built grouped layout for sparse tree attention.
    _tree_grouping: Optional["TreeGrouping"] = field(default=None, repr=False)
    #: Per-row tree layouts: cached on single-observation batches (the host
    #: assignment is fixed once collected) and carried over by
    #: :func:`stack_feature_batches` so regrouping a minibatch only offsets
    #: and buckets instead of re-deriving trees from the host rows.
    _tree_layouts: Optional[list] = field(default=None, repr=False)

    @property
    def sequence_length(self) -> int:
        return self.num_pms + self.num_vms

    def tree_layout(self) -> list:
        """Per-tree local position arrays for a single observation (cached)."""
        if self.batch_size is not None:
            raise ValueError("tree_layout is per single observation; use tree_grouping")
        return self._layouts()[0]

    def tree_grouping(self) -> Optional["TreeGrouping"]:
        """Grouped per-tree layout for the sparse tree-attention stage.

        Built lazily and cached on the batch, so every extractor block (and
        every epoch revisiting a cached stacked minibatch) reuses one
        grouping.  A single-row batch yields a one-row grouping (what the
        extractor applies after lifting it to a batch of one).  Returns
        ``None`` only when there are no VMs (no tree stage to run).
        """
        if self.num_vms == 0:
            return None
        if self._tree_grouping is None:
            self._tree_grouping = _grouping_from_layouts(self._layouts(), self.sequence_length)
        return self._tree_grouping

    def _layouts(self) -> list:
        if self._tree_layouts is None:
            self._tree_layouts = [
                _row_tree_layout(hosts, self.num_pms) for hosts in np.atleast_2d(self.hosts)
            ]
        return self._tree_layouts


def build_feature_batch(observation: Observation) -> FeatureBatch:
    """Convert an observation into feature tensors plus its host rows."""
    return FeatureBatch(
        pm_features=Tensor(observation.pm_features.copy()),
        vm_features=Tensor(observation.vm_features.copy()),
        hosts=observation.vm_source_pm,
        vm_mask=observation.vm_mask.copy(),
        num_pms=observation.num_pms,
        num_vms=observation.num_vms,
    )


def patch_feature_batch(
    previous: Optional[FeatureBatch], observation: Observation
) -> FeatureBatch:
    """Single-observation FeatureBatch reusing the previous step's structure.

    Feature tensors are always fresh copies of the observation's arrays (they
    are cheap, and callers may keep the previous batch alive), but the
    tree-side structure — per-tree layouts and grouping — is carried over
    from ``previous`` when the observation's delta proves the host
    assignment did not change, and *patched per moved VM* (two trees edited,
    grouping re-bucketed) when it did.  Falls back to
    :func:`build_feature_batch` whenever the delta chain cannot vouch for
    ``previous`` (episode start, shape change, unplaced endpoints).  The
    result is exactly what ``build_feature_batch`` would produce — pinned by
    the step-cache parity tests.
    """
    delta = observation.delta
    if (
        previous is None
        or delta is None
        or delta.step_index == 0  # chain start: no previous step to patch from
        or previous.batch_size is not None
        or previous.num_pms != observation.num_pms
        or previous.num_vms != observation.num_vms
    ):
        return build_feature_batch(observation)
    layouts = previous._tree_layouts
    grouping = previous._tree_grouping
    if delta.moved_vm_rows.size:
        old_hosts = previous.hosts[delta.moved_vm_rows]
        new_hosts = observation.vm_source_pm[delta.moved_vm_rows]
        if (old_hosts < 0).any() or (new_hosts < 0).any():
            # Placement appeared/disappeared (not a plain migration): the
            # singleton-tree tail would change shape — rebuild.
            return build_feature_batch(observation)
        if layouts is not None:
            num_pms = observation.num_pms
            tree_list = list(layouts[0])
            for vm_row, old_host, new_host in zip(
                delta.moved_vm_rows, old_hosts, new_hosts
            ):
                position = int(num_pms + vm_row)
                source = tree_list[old_host]
                tree_list[old_host] = source[source != position]
                dest = tree_list[new_host]
                insert_at = int(np.searchsorted(dest[1:], position)) + 1
                tree_list[new_host] = np.insert(dest, insert_at, position)
            layouts = [tree_list]
        grouping = None  # members changed: re-bucket lazily from the layouts
    return FeatureBatch(
        pm_features=Tensor(observation.pm_features.copy()),
        vm_features=Tensor(observation.vm_features.copy()),
        hosts=observation.vm_source_pm,
        vm_mask=observation.vm_mask.copy(),
        num_pms=observation.num_pms,
        num_vms=observation.num_vms,
        _tree_grouping=grouping,
        _tree_layouts=layouts,
    )


class TreeBucket:
    """One padded size-class of trees: gather indices plus the padding mask."""

    __slots__ = ("members", "valid", "attention_mask")

    def __init__(self, members: np.ndarray, valid: np.ndarray) -> None:
        self.members = members  # (groups, size) flat sequence positions
        self.valid = valid  # (groups, size) real-member indicator
        self.attention_mask = AttentionMask(valid[:, :, None] & valid[:, None, :])


class TreeGrouping:
    """Padded per-tree layout exploiting the block structure of tree attention.

    The host rows partition the combined [PMs..., VMs...] sequence of every
    batch row into disjoint trees — a PM with its hosted VMs, or an unplaced
    VM alone — and attention within a tree is *full*.  Tree-local attention is
    therefore exactly equivalent to running the layer over padded
    ``(num_trees, tree_size)`` groups: gather each tree's members, attend
    inside the (tiny) tree under a padding mask, scatter back.  A dense
    ``S×S`` tree mask (the parity tests' oracle) costs ``O(S²)`` scores per
    row; the grouped path ``O(Σ tree_size²)`` — typically an order of
    magnitude less.  Trees are split into at most two size-class buckets
    (chosen to minimize padded score area), so one oversize tree does not
    inflate the padding of every small one.

    Exactness invariants: trees are disjoint and ordered [PM, VMs ascending],
    matching the dense row order, padding keys are excluded by the additive
    bias (exactly zero weight and gradient), and padded slots gather position
    0 but receive exactly zero gradient because nothing reads them back.
    """

    __slots__ = ("buckets", "inverse")

    def __init__(self, buckets: Sequence[TreeBucket], inverse: np.ndarray) -> None:
        self.buckets = list(buckets)
        self.inverse = inverse  # (batch * seq,) slot in the concatenated layout

    def apply(self, layer: Module, combined: Tensor) -> Tensor:
        """Run an encoder ``layer`` tree-locally over the ``(batch, seq, dim)``
        combined sequence."""
        dim = combined.shape[-1]
        flat = combined.reshape(combined.shape[0] * combined.shape[1], dim)
        outputs = []
        for bucket in self.buckets:
            groups, size = bucket.members.shape
            grouped = _gather_rows(
                flat, bucket.members.reshape(-1), bucket.valid.reshape(-1)
            ).reshape(groups, size, dim)
            outputs.append(layer(grouped, mask=bucket.attention_mask).reshape(groups * size, dim))
        stacked = outputs[0] if len(outputs) == 1 else concatenate(outputs, axis=0)
        return _gather_rows(stacked, self.inverse).reshape(combined.shape)


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


def _pad_bucket(groups: Sequence[np.ndarray], size: int) -> TreeBucket:
    members = np.zeros((len(groups), size), dtype=np.intp)
    valid = np.zeros((len(groups), size), dtype=bool)
    for index, group in enumerate(groups):
        members[index, : len(group)] = group
        valid[index, : len(group)] = True
    return TreeBucket(members=members, valid=valid)


def _row_tree_layout(hosts: np.ndarray, num_pms: int) -> list:
    """Per-tree arrays of *local* sequence positions for one observation.

    Each array lists one tree's members in dense row order — the PM first,
    then its hosted VMs ascending — followed by singleton trees for unplaced
    VMs.  Cached per transition (the host assignment never changes after
    collection); stacking into a minibatch only adds row offsets.
    """
    host = np.where(hosts >= 0, hosts, num_pms)
    order = np.argsort(host, kind="stable")  # VMs ascending within each host
    sorted_host = host[order]
    bounds = np.searchsorted(sorted_host, np.arange(num_pms + 1))
    counts = bounds[1:] - bounds[:-1]
    # PM trees, filled without a per-group python loop: slot 0 is the PM,
    # each hosted VM lands at 1 + its rank within the host.
    row_members = np.zeros((num_pms, int(counts.max(initial=0)) + 1), dtype=np.intp)
    row_members[:, 0] = np.arange(num_pms)
    hosted = order[: bounds[num_pms]]
    hosted_on = sorted_host[: bounds[num_pms]]
    ranks = np.arange(hosted.size) - np.repeat(bounds[:-1], counts)
    row_members[hosted_on, 1 + ranks] = num_pms + hosted
    layout = [row_members[pm, : counts[pm] + 1] for pm in range(num_pms)]
    # Unplaced VMs: singleton trees.
    layout.extend(np.array([num_pms + vm]) for vm in order[bounds[num_pms] :])
    return layout


def _grouping_from_layouts(layouts: Sequence[list], seq: int) -> TreeGrouping:
    """Offset cached per-row layouts into one flat grouping and bucket it."""
    groups = [
        group + row * seq for row, layout in enumerate(layouts) for group in layout
    ]

    # Split into ≤2 size buckets at the cut minimizing padded score area —
    # but only when splitting at least halves the area.  Every bucket costs a
    # full encoder-layer pass (a dozen tensor ops), so on the overhead-bound
    # shapes of serving micro-batches one padded pass beats two lean ones;
    # the split pays off on skewed layouts (one big tree + many singletons)
    # where padding everything to the largest tree would explode the area.
    sizes = np.array([group.size for group in groups])
    unique_sizes = np.unique(sizes)
    largest = int(unique_sizes[-1])
    single_area = len(groups) * largest * largest
    best_area, split = single_area, None
    for cut in unique_sizes[:-1]:
        small = int((sizes <= cut).sum())
        area = small * int(cut) ** 2 + (len(groups) - small) * largest * largest
        if area < best_area:
            best_area, split = area, int(cut)
    if split is not None and best_area * 2 > single_area:
        split = None
    if split is None:
        buckets = [_pad_bucket(groups, largest)]
    else:
        buckets = [
            _pad_bucket([g for g in groups if g.size <= split], split),
            _pad_bucket([g for g in groups if g.size > split], largest),
        ]

    inverse = np.empty(len(layouts) * seq, dtype=np.intp)
    offset = 0
    for bucket in buckets:
        inverse[bucket.members[bucket.valid]] = offset + np.flatnonzero(bucket.valid.reshape(-1))
        offset += bucket.members.size
    return TreeGrouping(buckets=buckets, inverse=inverse)


def stack_feature_batches(batches: Sequence[FeatureBatch]) -> FeatureBatch:
    """Stack already-built single-observation batches along a new batch axis.

    The PPO update caches one :class:`FeatureBatch` per stored transition
    (featurization and tree layouts happen once per rollout); each
    minibatch then stacks the cached arrays here — a plain ``np.stack`` per
    field — instead of re-deriving trees from the observations every
    epoch × minibatch.  All batches must be single-observation (2-D) and share
    one cluster size.
    """
    if not batches:
        raise ValueError("need at least one feature batch")
    if any(batch.batch_size is not None for batch in batches):
        raise ValueError("can only stack single-observation feature batches")
    sizes = {(batch.num_pms, batch.num_vms) for batch in batches}
    if len(sizes) > 1:
        raise ValueError(f"feature batches disagree on cluster size: {sorted(sizes)}")
    # Carry the cached per-row tree layouts (built once per transition) so
    # the minibatch grouping only offsets and buckets them.
    layouts = [batch.tree_layout() for batch in batches] if batches[0].num_vms else None
    return FeatureBatch(
        pm_features=Tensor(np.stack([b.pm_features.data for b in batches], axis=0)),
        vm_features=Tensor(np.stack([b.vm_features.data for b in batches], axis=0)),
        hosts=np.stack([b.hosts for b in batches], axis=0),
        vm_mask=np.stack([b.vm_mask for b in batches], axis=0),
        num_pms=batches[0].num_pms,
        num_vms=batches[0].num_vms,
        batch_size=len(batches),
        _tree_layouts=layouts,
    )
