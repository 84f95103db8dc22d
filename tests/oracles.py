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
* the padded whole-layer tree stage, which ran the entire encoder layer on
  the padded per-tree groups — :func:`padded_tree_stage`;
* per-pair loops for the stage-1 / stage-2 feasibility masks over the
  machine snapshots (``state.pms`` / ``state.vms``), and a per-object
  observation build;
* the per-object fragment reductions (:func:`fragment_rate` and friends)
  the array metrics of :mod:`repro.cluster.fragmentation` replaced;
* the remove/place probe loops HA, α-VBPP and MCTS scored moves with, and
  the object-path NUMA choice (:func:`best_numa_reference`), against the
  SoA view's move scores;
* a recount of a state's free capacity from its placements
  (:func:`assert_recounted`);
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
from repro.cluster import BOTH_NUMAS, ClusterState, ConstraintChecker, Migration, Placement
from repro.core.attention import ExtractorOutput, SparseAttentionExtractor
from repro.core.features import FeatureBatch, TreeGrouping, _gather_rows
from repro.core.step_cache import StepCache
from repro.env.objectives import Objective
from repro.env.observation import (
    PM_FEATURE_DIM,
    PM_FEATURES_PER_NUMA,
    VM_FEATURE_DIM,
    VM_OWN_FEATURE_DIM,
    Observation,
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


def masked_fill(x: Tensor, mask: np.ndarray) -> Tensor:
    mask = np.asarray(mask, dtype=bool)
    return where(mask, x, Tensor(np.full(x.shape, F.MASK_FILL_VALUE)))


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


def padded_tree_stage(grouping: TreeGrouping, layer, combined: Tensor) -> Tensor:
    """``grouping.apply(layer, combined)`` with the *whole* layer — norms,
    projections, residuals and feed-forward included — run on the padded
    ``(trees, width, dim)`` groups, padding rows and all, and the outputs
    scattered back through ``grouping.inverse``."""
    dim = combined.shape[-1]
    flat = combined.reshape(-1, dim)
    outputs = []
    for bucket in grouping.buckets:
        groups, size = bucket.members.shape
        grouped = _gather_rows(
            flat, bucket.members.reshape(-1), bucket.valid.reshape(-1)
        ).reshape(groups, size, dim)
        outputs.append(layer(grouped, mask=bucket.attention_mask).reshape(groups * size, dim))
    stacked = outputs[0] if len(outputs) == 1 else concatenate(outputs, axis=0)
    return _gather_rows(stacked, grouping.inverse).reshape(combined.shape)


def tree_mask(batch: FeatureBatch) -> np.ndarray:
    """The ``(batch, S, S)`` dense tree mask of a feature batch."""
    return dense_tree_mask(batch.hosts, batch.num_pms)


def dense_extractor_forward(self: SparseAttentionExtractor, batch: FeatureBatch) -> ExtractorOutput:
    """The extractor with stage 1 as ONE layer over all ``S`` tokens under
    :func:`tree_mask` (shared by every block), in the parameters' dtype."""
    pm_embeddings = self.pm_embed(Tensor(batch.pm_features))
    vm_embeddings = self.vm_embed(Tensor(batch.vm_features))
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
    )


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
# Recount and per-object fragment reductions
# ---------------------------------------------------------------------- #
def assert_recounted(state: ClusterState) -> None:
    """Every NUMA's free CPU and memory equal its capacity minus the
    per-NUMA demands of the VMs placed on it (demands are multiples of 0.5,
    so the sums are exact), no NUMA is over-committed, and the state equals
    its ``from_dict(to_dict())`` round trip."""
    soa = state.arrays()
    used_cpu = np.zeros((soa.num_pms, 2))
    used_mem = np.zeros((soa.num_pms, 2))
    for vm in state.vms.values():
        if vm.is_placed:
            for numa_id in vm.numa_ids_on_pm():
                used_cpu[soa.pm_row[vm.pm_id], numa_id] += vm.cpu_per_numa
                used_mem[soa.pm_row[vm.pm_id], numa_id] += vm.memory_per_numa
    capacity = np.array([[state.pm_type(pm_id).cpu_per_numa] * 2 for pm_id in state.sorted_pm_ids()])
    memory = np.array([[state.pm_type(pm_id).memory_per_numa] * 2 for pm_id in state.sorted_pm_ids()])
    np.testing.assert_array_equal(soa.numa_free_cpu, capacity - used_cpu)
    np.testing.assert_array_equal(soa.numa_free_mem, memory - used_mem)
    assert (soa.numa_free_cpu >= 0).all() and (soa.numa_free_mem >= 0).all()
    restored = ClusterState.from_dict(state.to_dict())
    assert restored.to_dict() == state.to_dict()
    for mine, theirs in zip(soa.snapshot(), restored.arrays().snapshot()):
        np.testing.assert_array_equal(mine, theirs)
    np.testing.assert_array_equal(soa.vm_numa, restored.arrays().vm_numa)
    np.testing.assert_array_equal(soa.vm_group, restored.arrays().vm_group)


def pm_cpu_fragment(pm, x_cores: int = 16) -> float:
    """X-core CPU fragment of a PM snapshot: the sum over its NUMAs."""
    return sum(float(numa.free_cpu % x_cores) for numa in pm.numas)


def pm_memory_fragment(pm, x_memory: float = 64.0) -> float:
    return sum(float(numa.free_memory % x_memory) for numa in pm.numas)


def cluster_cpu_fragment(pms, x_cores: int = 16) -> float:
    return sum(pm_cpu_fragment(pm, x_cores) for pm in pms)


def fragment_rate(pms, x_cores: int = 16) -> float:
    """Unusable free CPU / total free CPU over PM snapshots (0 when none is free)."""
    pms = list(pms)
    total_free = sum(pm.free_cpu for pm in pms)
    return cluster_cpu_fragment(pms, x_cores) / total_free if total_free > 0 else 0.0


def memory_fragment_rate(pms, x_memory: float = 64.0) -> float:
    pms = list(pms)
    total_free = sum(pm.free_memory for pm in pms)
    if total_free <= 0:
        return 0.0
    return sum(pm_memory_fragment(pm, x_memory) for pm in pms) / total_free


# ---------------------------------------------------------------------- #
# Loop feasibility masks and featurization
# ---------------------------------------------------------------------- #
def conflicting_pm_ids(state: ClusterState, vm_id: int) -> set:
    """PMs hosting another placed VM of ``vm_id``'s anti-affinity group."""
    group = state.vms[vm_id].anti_affinity_group
    if group is None:
        return set()
    return {
        other.pm_id
        for other in state.vms.values()
        if other.vm_id != vm_id and other.is_placed and other.anti_affinity_group == group
    }


def feasible_numas_reference(
    state: ClusterState, vm_id: int, pm_id: int, honor_affinity: bool = True, conflicts=None
):
    """``state.feasible_numas`` on the snapshots: the NUMAs of ``pm_id`` whose
    free CPU and memory hold the VM's per-NUMA request (both, as
    ``BOTH_NUMAS``, for a double-NUMA VM).  ``conflicts``: the VM's
    :func:`conflicting_pm_ids`, if already known."""
    if conflicts is None:
        conflicts = conflicting_pm_ids(state, vm_id)
    if honor_affinity and pm_id in conflicts:
        return []
    vm, pm = state.vms[vm_id], state.pms[pm_id]
    room = [
        numa.free_cpu >= vm.cpu_per_numa and numa.free_memory >= vm.memory_per_numa
        for numa in pm.numas
    ]
    if vm.numa_count == 2:
        return [BOTH_NUMAS] if all(room) else []
    return [numa_id for numa_id in (0, 1) if room[numa_id]]


def destination_mask_reference(state: ClusterState, vm_id: int) -> np.ndarray:
    """``checker.destination_mask`` from the snapshots: room and no group
    conflict per sorted PM, never the VM's source PM."""
    vm = state.vms.get(vm_id)
    if vm is None or not vm.is_placed:
        return np.zeros(len(state.pms), dtype=bool)
    conflicts = conflicting_pm_ids(state, vm_id)
    return np.array(
        [
            pm_id != vm.pm_id
            and bool(feasible_numas_reference(state, vm_id, pm_id, conflicts=conflicts))
            for pm_id in sorted(state.pms)
        ],
        dtype=bool,
    )


def movable_vm_mask_reference(state: ClusterState) -> np.ndarray:
    """``checker.movable_vm_mask``: VMs with any destination."""
    return np.array(
        [destination_mask_reference(state, vm_id).any() for vm_id in sorted(state.vms)],
        dtype=bool,
    )


def build_reference(state: ClusterState, migrations_left: int) -> Observation:
    """``ObservationBuilder.build`` featurized machine by machine."""
    pm_ids = sorted(state.pms)
    vm_ids = sorted(state.vms)
    pm_index = {pm_id: index for index, pm_id in enumerate(pm_ids)}
    pm_features = _pm_features(state, pm_ids)
    vm_features, vm_source_pm = _vm_features(state, vm_ids, pm_index, pm_features)
    return Observation(
        pm_features=_min_max_normalize(pm_features),
        vm_features=_min_max_normalize(vm_features),
        vm_source_pm=vm_source_pm,
        vm_mask=movable_vm_mask_reference(state),
        migrations_left=migrations_left,
    )


def _pm_features(state: ClusterState, pm_ids: List[int]) -> np.ndarray:
    features = np.zeros((len(pm_ids), PM_FEATURE_DIM), dtype=float)
    x = state.fragment_cores
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
    state: ClusterState,
    vm_ids: List[int],
    pm_index: Dict[int, int],
    raw_pm_features: np.ndarray,
) -> tuple:
    features = np.zeros((len(vm_ids), VM_FEATURE_DIM), dtype=float)
    source_pm = np.full(len(vm_ids), -1, dtype=int)
    x = state.fragment_cores
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
# Remove/place probe loops of the search baselines
# ---------------------------------------------------------------------- #
def best_numa_reference(state: ClusterState, vm_id: int, pm_id: int, honor_affinity: bool = True):
    """``state.best_numa_for`` on the object path: the feasible NUMA with the
    least post-placement fragment, then less free CPU (``None`` if none)."""
    candidates = feasible_numas_reference(state, vm_id, pm_id, honor_affinity=honor_affinity)
    if not candidates:
        return None
    vm = state.vms[vm_id]
    if candidates == [BOTH_NUMAS]:
        return BOTH_NUMAS
    pm = state.pms[pm_id]

    def post_fragment(numa_id: int):
        numa = pm.numas[numa_id]
        remaining = numa.free_cpu - vm.cpu
        return (remaining % state.fragment_cores, numa.free_cpu)

    return min(candidates, key=post_fragment)


def ha_plan_reference(state: ClusterState, migration_limit: int) -> List[Migration]:
    """``FilteringHeuristic`` by probes: per step, the movable VM whose
    removal drops its source fragment most, moved to the PM with the largest
    total drop, until no move strictly helps.  Mutates ``state``."""
    plan = []
    for _ in range(migration_limit):
        vm_id = _ha_filter_vm(state)
        if vm_id is None:
            break
        candidate = _ha_score_destinations(state, vm_id)
        if candidate is None or candidate[3] >= 0:
            break
        state.migrate_vm(candidate[0], candidate[1], dest_numa_id=candidate[2])
        plan.append(Migration(candidate[0], candidate[1], candidate[2]))
    return plan


def _ha_filter_vm(state: ClusterState):
    best_vm = None
    best_drop = None
    movable = ConstraintChecker().movable_vm_mask(state)
    for row, vm_id in enumerate(state.sorted_vm_ids()):
        if not movable[row]:
            continue
        source_pm = state.vms[vm_id].pm_id
        before = state.pm_fragment(source_pm)
        placement = state.remove_vm(vm_id)
        after = state.pm_fragment(source_pm)
        state.place_vm(vm_id, placement, honor_affinity=False)
        drop = after - before  # negative means removal reduces the fragment
        if best_drop is None or drop < best_drop:
            best_drop = drop
            best_vm = vm_id
    return best_vm


def _ha_score_destinations(state: ClusterState, vm_id: int):
    """``(vm_id, pm_id, numa_id, total_delta)`` of the best destination."""
    vm = state.vms[vm_id]
    source_pm = vm.pm_id
    before_source = state.pm_fragment(source_pm)
    source_placement = state.remove_vm(vm_id)
    after_source = state.pm_fragment(source_pm)
    source_delta = after_source - before_source

    best = None
    conflicts = conflicting_pm_ids(state, vm_id)
    try:
        for pm_id in state.sorted_pm_ids():
            if pm_id == source_pm or pm_id in conflicts:
                continue
            numa_id = best_numa_reference(state, vm_id, pm_id, honor_affinity=False)
            if numa_id is None:
                continue
            before_dest = state.pm_fragment(pm_id)
            state.place_vm(vm_id, Placement(pm_id, numa_id), honor_affinity=False)
            after_dest = state.pm_fragment(pm_id)
            state.remove_vm(vm_id)
            total_delta = source_delta + (after_dest - before_dest)
            if best is None or total_delta < best[3]:
                best = (vm_id, pm_id, numa_id, total_delta)
    finally:
        state.place_vm(vm_id, source_placement, honor_affinity=False)
    return best


def vbpp_victims_reference(state: ClusterState, count: int) -> List[int]:
    """``AlphaVBPP._select_victims`` by probes: the ``count`` placed VMs whose
    removal drops their source fragment most, ties to the lower id."""
    scored = []
    for vm_id in state.sorted_vm_ids():
        vm = state.vms[vm_id]
        if not vm.is_placed:
            continue
        source_pm = vm.pm_id
        before = state.pm_fragment(source_pm)
        placement = state.remove_vm(vm_id)
        after = state.pm_fragment(source_pm)
        state.place_vm(vm_id, placement, honor_affinity=False)
        scored.append((after - before, vm_id))
    scored.sort()
    return [vm_id for _, vm_id in scored[:count]]


def mcts_candidates_reference(state: ClusterState, limit: int) -> List[tuple]:
    """``MCTSRescheduler._candidate_actions`` by probes: the top ``limit``
    legal (vm, pm) pairs by fragment reduction, ties in VM then
    ``state.pms`` order."""
    scored = []
    for vm_id in state.sorted_vm_ids():
        vm = state.vms[vm_id]
        if not vm.is_placed:
            continue
        source_pm = vm.pm_id
        before_source = state.pm_fragment(source_pm)
        placement = state.remove_vm(vm_id)
        after_source = state.pm_fragment(source_pm)
        conflicts = conflicting_pm_ids(state, vm_id)
        for pm_id in state.pms:
            if pm_id == source_pm or pm_id in conflicts:
                continue
            numa_id = best_numa_reference(state, vm_id, pm_id, honor_affinity=False)
            if numa_id is None:
                continue
            before_dest = state.pm_fragment(pm_id)
            state.place_vm(vm_id, Placement(pm_id, numa_id), honor_affinity=False)
            after_dest = state.pm_fragment(pm_id)
            state.remove_vm(vm_id)
            gain = (before_source - after_source) + (before_dest - after_dest)
            scored.append((gain, (vm_id, pm_id)))
        state.place_vm(vm_id, placement, honor_affinity=False)
    scored.sort(key=lambda item: -item[0])
    return [action for _, action in scored[:limit]]


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
