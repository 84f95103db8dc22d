"""Oracles the parity tests pin the library against.

The library keeps one implementation per op; the straightforward versions
it replaced live here, beside the tests that compare against them:

* chained-primitive softmax, log-softmax, layer norm, masked fill and
  linear, and per-head chained attention — :func:`oracle_ops` patches them
  into ``repro.nn.functional`` and ``MultiHeadAttention`` (every caller
  reaches them as ``F.<op>`` or through the layer's ``forward``);
* a dense ``S×S`` tree mask built from host rows, independently of
  ``TreeGrouping``, and an extractor whose tree stage is one dense masked
  layer — :func:`dense_tree_stage` (also part of :func:`oracle_ops`);
* per-pair loops for the stage-1 / stage-2 feasibility masks and a
  per-object observation build;
* the VMR2L planner with the StepCache off — :class:`FreshRLPlanner`.

Run the pair under test once normally and once inside the context manager,
then compare.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional, Sequence
from unittest import mock

import numpy as np

from repro.baselines import ReschedulingResult
from repro.cluster import ClusterState, ConstraintChecker
from repro.core.attention import ExtractorOutput, SparseAttentionExtractor, _stacked_features
from repro.core.features import FeatureBatch
from repro.core.step_cache import StepCache
from repro.env.objectives import Objective
from repro.env.observation import (
    PM_FEATURE_DIM,
    PM_FEATURES_PER_NUMA,
    VM_FEATURE_DIM,
    VM_OWN_FEATURE_DIM,
    Observation,
    ObservationBuilder,
    _min_max_normalize,
)
from repro.nn import AttentionMask, MultiHeadAttention, Tensor, concatenate, where
from repro.nn import functional as F
from repro.nn.attention import _first_row
from repro.serve.registry import RLPlanner


# ---------------------------------------------------------------------- #
# Chained-primitive ops
# ---------------------------------------------------------------------- #
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = Tensor._ensure(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = Tensor._ensure(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    x = Tensor._ensure(x)
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normalized = centered / (variance + eps).sqrt()
    return normalized * weight + bias


def masked_fill(x: Tensor, mask: np.ndarray, fill_value: float = F.MASK_FILL_VALUE) -> Tensor:
    mask = np.asarray(mask, dtype=bool)
    return where(mask, x, Tensor(np.full(x.shape, fill_value)))


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    out = x.matmul(weight.swapaxes(0, 1))
    return out if bias is None else out + bias


def attention_forward(
    self: MultiHeadAttention, query: Tensor, key: Tensor, value: Tensor,
    mask=None, return_weights: bool = False,
):
    """Chained per-head attention: per-head reshapes, the scale applied to the
    full score tensor, the boolean mask expanded over the head axis into the
    cleanup-style ``masked_softmax`` (fill, softmax, leakage zeroing,
    renormalize) plus an unconditional dead-row multiply, and the
    ``(batch, heads, q_len, k_len)`` probabilities saved for the backward."""
    if query.ndim == 2:
        return _first_row(attention_forward(
            self, query.unsqueeze(0), key.unsqueeze(0), value.unsqueeze(0), mask, return_weights
        ))
    batch, q_len, k_len = query.shape[0], query.shape[1], key.shape[1]
    mask = self._checked_mask(mask, batch, q_len, k_len)

    def heads(x: Tensor, length: int) -> Tensor:
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose((0, 2, 1, 3))

    q = heads(self.q_proj(query), q_len)
    k = heads(self.k_proj(key), k_len)
    v = heads(self.v_proj(value), k_len)
    scores = q.matmul(k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
    if mask is None:
        weights = F.softmax(scores, axis=-1)
    else:
        shape = (batch, self.num_heads, q_len, k_len)
        raw = np.broadcast_to(mask.mask, (batch, q_len, k_len))
        allowed = raw.any(axis=-1).astype(float)[:, None, :, None]
        weights = F.masked_softmax(scores, np.broadcast_to(raw[:, None], shape), axis=-1)
        weights = weights * Tensor(np.broadcast_to(allowed, shape))
    context = weights.matmul(v).transpose((0, 2, 1, 3)).reshape(batch, q_len, self.embed_dim)
    output = self.out_proj(context)
    return (output, weights.data.mean(axis=1)) if return_weights else output


# ---------------------------------------------------------------------- #
# Dense tree stage
# ---------------------------------------------------------------------- #
def dense_tree_mask(hosts: np.ndarray, num_pms: int) -> np.ndarray:
    """Tree-local attention mask over the ``[PMs..., VMs...]`` sequence.

    Every token gets a tree id — a PM its own row, a VM its host row, an
    unplaced VM (host ``-1``) an id of its own — and may attend exactly to
    the tokens sharing it.  ``(V,)`` hosts give ``(S, S)``; ``(B, V)`` give
    ``(B, S, S)``.
    """
    hosts = np.asarray(hosts)
    if hosts.ndim == 2:
        return np.stack([dense_tree_mask(row, num_pms) for row in hosts])
    alone = num_pms + np.arange(hosts.size)
    tree = np.concatenate([np.arange(num_pms), np.where(hosts >= 0, hosts, alone)])
    return tree[:, None] == tree[None, :]


def tree_mask(batch: FeatureBatch) -> np.ndarray:
    """The dense tree mask of a (single-row or stacked) feature batch."""
    return dense_tree_mask(batch.hosts, batch.num_pms)


def dense_extractor_forward(self: SparseAttentionExtractor, batch: FeatureBatch) -> ExtractorOutput:
    """The extractor with stage 1 as ONE layer over all ``S`` tokens under
    :func:`tree_mask` (shared by every block), in the parameters' dtype."""
    pm_inputs, vm_inputs = _stacked_features(batch)
    pm_embeddings = self.pm_embed(Tensor(pm_inputs))
    vm_embeddings = self.vm_embed(Tensor(vm_inputs))
    mask = None
    if self.use_tree_attention and batch.num_vms:
        mask = AttentionMask(tree_mask(batch))
    for block in self.blocks:
        if mask is not None:
            combined = block.tree_attention(
                concatenate([pm_embeddings, vm_embeddings], axis=-2), mask=mask
            )
            pm_embeddings = combined[..., : batch.num_pms, :]
            vm_embeddings = combined[..., batch.num_pms :, :]
        pm_embeddings, vm_embeddings, scores, _ = block.interaction_stages(
            pm_embeddings, vm_embeddings, want_scores=block is self.blocks[-1]
        )
    return ExtractorOutput(
        vm_embeddings=self.final_norm_vm(vm_embeddings) if batch.num_vms else vm_embeddings,
        pm_embeddings=self.final_norm_pm(pm_embeddings),
        vm_pm_scores=scores,
    ).for_batch(batch)


@contextlib.contextmanager
def _patched(*patches):
    with contextlib.ExitStack() as stack:
        for target, name, value in patches:
            stack.enter_context(mock.patch.object(target, name, value))
        yield


#: The StepCache encodes without the extractor's ``forward``, so it stands
#: down whenever the dense stage is patched in.
_DENSE_TREE_STAGE = (
    (SparseAttentionExtractor, "forward", dense_extractor_forward),
    (StepCache, "usable", lambda self, extractor: False),
)


def dense_tree_stage():
    """Extractors (and every policy forward) run the dense tree stage."""
    return _patched(*_DENSE_TREE_STAGE)


def oracle_ops():
    """Chained ops, per-head chained attention and the dense tree stage."""
    return _patched(
        (F, "softmax", softmax),
        (F, "log_softmax", log_softmax),
        (F, "layer_norm", layer_norm),
        (F, "masked_fill", masked_fill),
        (F, "linear", linear),
        (MultiHeadAttention, "forward", attention_forward),
        *_DENSE_TREE_STAGE,
    )


# ---------------------------------------------------------------------- #
# Loop feasibility masks and featurization
# ---------------------------------------------------------------------- #
def destination_mask_reference(
    checker: ConstraintChecker, state: ClusterState, vm_id: int,
    pm_ids: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """``checker.destination_mask`` as one ``migration_is_feasible`` per PM."""
    pm_ids = list(pm_ids) if pm_ids is not None else sorted(state.pms)
    return np.array(
        [checker.migration_is_feasible(state, vm_id, pm_id) for pm_id in pm_ids], dtype=bool
    )


def movable_vm_mask_reference(
    checker: ConstraintChecker, state: ClusterState, vm_ids: Optional[Sequence[int]] = None
) -> np.ndarray:
    """``checker.movable_vm_mask`` from ``state.feasible_destination_pms``."""
    vm_ids = list(vm_ids) if vm_ids is not None else sorted(state.vms)
    mask = np.zeros(len(vm_ids), dtype=bool)
    for index, vm_id in enumerate(vm_ids):
        if not state.vms[vm_id].is_placed:
            continue
        mask[index] = bool(state.feasible_destination_pms(
            vm_id,
            exclude_source=not checker.config.allow_source_pm,
            honor_affinity=checker.config.honor_anti_affinity,
        ))
    return mask


def build_reference(
    builder: ObservationBuilder, state: ClusterState, migrations_left: int
) -> Observation:
    """``builder.build`` featurized machine by machine."""
    pm_ids = sorted(state.pms)
    vm_ids = sorted(state.vms)
    pm_index = {pm_id: index for index, pm_id in enumerate(pm_ids)}
    pm_features = _pm_features(builder, state, pm_ids)
    vm_features, vm_source_pm = _vm_features(builder, state, vm_ids, pm_index, pm_features)
    return Observation(
        pm_features=_min_max_normalize(pm_features),
        vm_features=_min_max_normalize(vm_features),
        vm_source_pm=vm_source_pm,
        vm_mask=movable_vm_mask_reference(builder.checker, state, vm_ids),
        vm_ids=list(vm_ids),
        pm_ids=list(pm_ids),
        migrations_left=migrations_left,
    )


def _pm_features(builder: ObservationBuilder, state: ClusterState, pm_ids: List[int]) -> np.ndarray:
    features = np.zeros((len(pm_ids), PM_FEATURE_DIM), dtype=float)
    x = builder.fragment_cores
    for row, pm_id in enumerate(pm_ids):
        pm = state.pms[pm_id]
        pm_free = pm.free_cpu
        pm_frag = sum(numa.free_cpu % x for numa in pm.numas)
        pm_fr = pm_frag / pm_free if pm_free > 0 else 0.0
        for numa in pm.numas:
            offset = numa.numa_id * PM_FEATURES_PER_NUMA
            features[row, offset + 0] = numa.free_cpu
            features[row, offset + 1] = numa.free_memory
            features[row, offset + 2] = pm_fr
            features[row, offset + 3] = numa.free_cpu % x
    return features


def _vm_features(
    builder: ObservationBuilder,
    state: ClusterState,
    vm_ids: List[int],
    pm_index: Dict[int, int],
    raw_pm_features: np.ndarray,
) -> tuple:
    features = np.zeros((len(vm_ids), VM_FEATURE_DIM), dtype=float)
    source_pm = np.full(len(vm_ids), -1, dtype=int)
    x = builder.fragment_cores
    for row, vm_id in enumerate(vm_ids):
        vm = state.vms[vm_id]
        if vm.numa_count == 2:
            cpu_per_numa = (vm.cpu_per_numa, vm.cpu_per_numa)
            mem_per_numa = (vm.memory_per_numa, vm.memory_per_numa)
        else:
            numa_slot = vm.numa_id if vm.is_placed and vm.numa_id in (0, 1) else 0
            cpu_per_numa = [0.0, 0.0]
            mem_per_numa = [0.0, 0.0]
            cpu_per_numa[numa_slot] = vm.cpu
            mem_per_numa[numa_slot] = vm.memory
        features[row, 0] = cpu_per_numa[0]
        features[row, 1] = cpu_per_numa[1]
        features[row, 2] = mem_per_numa[0]
        features[row, 3] = mem_per_numa[1]
        # Fragment the VM's own request leaves at the X-core granularity.
        features[row, 4] = cpu_per_numa[0] % x
        features[row, 5] = cpu_per_numa[1] % x
        if vm.is_placed:
            pm_row = pm_index[vm.pm_id]
            source_pm[row] = pm_row
            features[row, VM_OWN_FEATURE_DIM:] = raw_pm_features[pm_row]
    return features, source_pm


# ---------------------------------------------------------------------- #
# Cache-off planner
# ---------------------------------------------------------------------- #
class FreshRLPlanner(RLPlanner):
    """The VMR2L planner with the StepCache off: every decision step
    re-featurizes and re-encodes the whole snapshot.

    The service always plans RL requests with the cache on, so the fresh
    side of a cache parity check is this planner swapped into the registry
    (``registry.replace("vmr2l", FreshRLPlanner(agent))``).  ``calls``
    counts ``plan_batch`` calls, so a check can prove the reference ran.
    """

    def __init__(self, agent) -> None:
        super().__init__(agent)
        self.calls = 0

    def plan_batch(
        self,
        states: Sequence[ClusterState],
        migration_limits: Sequence[int],
        objective: Optional[Objective] = None,
        greedy: bool = True,
        seed: Optional[int] = None,
        max_active: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> List[ReschedulingResult]:
        self.calls += 1
        return self.agent.plan_batch(
            states,
            list(migration_limits),
            greedy=greedy,
            seed=0 if seed is None else seed,
            objective=objective,
            max_active=max_active,
            use_step_cache=False,
            deadline_s=deadline_s,
        )
