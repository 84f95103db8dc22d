"""Feature-extraction modules for VMR2L (§3.3) and its ablations (§5.3).

Three extractors share the same interface — they map the per-machine feature
matrices to per-machine embeddings plus a VM→PM attention score matrix:

* :class:`SparseAttentionExtractor` — the paper's design.  Each block runs
  (1) sparse local attention inside each PM tree, (2) self-attention among PMs
  and among VMs, and (3) VM→PM cross-attention, each followed by a
  position-wise feed-forward and layer norm.
* :class:`VanillaAttentionExtractor` — the same architecture minus the
  tree-local stage (the "Vanilla Attention" ablation of Fig. 10).
* :class:`MLPExtractor` — concatenates every machine's features into one long
  vector processed by an MLP ("w/o Attention" in Fig. 10); its parameter count
  scales with the cluster size, which is why it fails to converge.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..env.observation import PM_FEATURE_DIM, VM_FEATURE_DIM
from ..nn import (
    MLP,
    AttentionState,
    CrossAttentionLayer,
    LayerNorm,
    Module,
    Tensor,
    TransformerEncoderLayer,
    concatenate,
    grad_enabled,
)
from .config import ModelConfig
from .features import FeatureBatch, TreeGrouping


class ExtractorOutput:
    """Embeddings produced by a feature extractor.

    ``(batch, machines, dim)`` embeddings and ``(batch, num_vms, num_pms)``
    scores, one row per row of the :class:`FeatureBatch` — the layout the
    actor heads consume.
    """

    def __init__(self, vm_embeddings: Tensor, pm_embeddings: Tensor, vm_pm_scores: np.ndarray) -> None:
        self.vm_embeddings = vm_embeddings
        self.pm_embeddings = pm_embeddings
        self.vm_pm_scores = vm_pm_scores


class _AttentionBlock(Module):
    """One VMR2L attention block (§3.3, Fig. 8)."""

    def __init__(self, config: ModelConfig, use_tree_attention: bool, rng: np.random.Generator) -> None:
        super().__init__()
        dim, heads, hidden = config.embed_dim, config.num_heads, config.feedforward_dim
        self.use_tree_attention = use_tree_attention
        if use_tree_attention:
            self.tree_attention = TransformerEncoderLayer(dim, heads, hidden, rng=rng)
        self.pm_self_attention = TransformerEncoderLayer(dim, heads, hidden, rng=rng)
        self.vm_self_attention = TransformerEncoderLayer(dim, heads, hidden, rng=rng)
        self.cross_attention = CrossAttentionLayer(dim, heads, hidden, rng=rng)

    def forward(
        self,
        pm_embeddings: Tensor,
        vm_embeddings: Tensor,
        tree_groups: Optional[TreeGrouping],
        want_scores: bool = False,
    ) -> Tuple[Tensor, Tensor, Optional[np.ndarray]]:
        """Run one block over ``(batch, machines, dim)`` embeddings.

        ``tree_groups`` makes stage 1 attend inside padded per-tree groups
        (``None``: no tree stage).  ``want_scores`` (the extractor's final
        block) also returns the head-averaged stage-3 VM→PM weights; they
        never feed an embedding, so every other block skips computing them.
        """
        pm_embeddings, vm_embeddings = self.tree_stage(pm_embeddings, vm_embeddings, tree_groups)
        return self.interaction_stages(pm_embeddings, vm_embeddings, want_scores)[:3]

    def tree_stage(
        self, pm_embeddings: Tensor, vm_embeddings: Tensor, tree_groups: Optional[TreeGrouping]
    ) -> Tuple[Tensor, Tensor]:
        """Stage 1: sparse local attention within each PM tree."""
        if not self.use_tree_attention or tree_groups is None:
            return pm_embeddings, vm_embeddings
        num_pms = pm_embeddings.shape[-2]
        combined = concatenate([pm_embeddings, vm_embeddings], axis=-2)
        combined = tree_groups.apply(self.tree_attention, combined)
        return combined[..., :num_pms, :], combined[..., num_pms:, :]

    def interaction_stages(
        self,
        pm_embeddings: Tensor,
        vm_embeddings: Tensor,
        want_scores: bool = False,
        vm_previous: Optional[Sequence[AttentionState]] = None,
        vm_changed: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tensor, Optional[np.ndarray], Optional[AttentionState]]:
        """Stages 2–3 of the block (PM/VM self-attention + cross-attention).

        Split out so the step cache can feed patched stage-1 outputs straight
        into the global stages.  With ``vm_changed`` — the ``(batch, V)``
        boolean of VM rows that differ from the step the per-row states
        ``vm_previous`` came from (no-grad only) — the dense VM↔VM stage runs through
        ``forward_array_incremental`` and its softmax state (``None`` when
        the layer keeps none) is the fourth result; PM self-attention and
        cross-attention always re-run.
        """
        scores = vm_state = None
        # Stage 2: PM and VM self-attention.
        pm_embeddings = self.pm_self_attention(pm_embeddings)
        if vm_embeddings.shape[-2] > 0:
            if vm_changed is None:
                vm_embeddings = self.vm_self_attention(vm_embeddings)
            else:
                vm_data, vm_state = self.vm_self_attention.forward_array_incremental(
                    vm_embeddings.data, vm_previous, vm_changed
                )
                vm_embeddings = Tensor(vm_data)
            # Stage 3: VM -> PM cross-attention.
            attended = self.cross_attention(
                vm_embeddings, pm_embeddings, return_weights=want_scores
            )
            vm_embeddings, scores = attended if want_scores else (attended, None)
        elif want_scores:
            scores = np.zeros(pm_embeddings.shape[:-2] + (0, pm_embeddings.shape[-2]))
        return pm_embeddings, vm_embeddings, scores, vm_state


class SparseAttentionExtractor(Module):
    """The paper's tree-aware attention feature extractor."""

    use_tree_attention = True

    def __init__(self, config: ModelConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.config = config
        dim = config.embed_dim
        self.pm_embed = MLP(PM_FEATURE_DIM, [dim], dim, rng=rng)
        self.vm_embed = MLP(VM_FEATURE_DIM, [dim], dim, rng=rng)
        self.blocks = []
        for index in range(config.num_blocks):
            block = _AttentionBlock(config, self.use_tree_attention, rng)
            self.register_module(f"block{index}", block)
            self.blocks.append(block)
        self.final_norm_vm = LayerNorm(dim)
        self.final_norm_pm = LayerNorm(dim)

    def forward(self, batch: FeatureBatch) -> ExtractorOutput:
        pm_inputs, vm_inputs = self.input_arrays(batch)
        # Tree-local attention runs inside padded per-tree groups (cached on
        # the FeatureBatch).  No VMs, no trees: the grouping is None.
        tree_groups = batch.tree_grouping() if self.use_tree_attention else None
        pm_embeddings, vm_embeddings = self.blocks[0].tree_stage(
            self.pm_embed(Tensor(pm_inputs)), self.vm_embed(Tensor(vm_inputs)), tree_groups
        )
        return self.finish(pm_embeddings, vm_embeddings, tree_groups)[0]

    def input_arrays(self, batch: FeatureBatch) -> Tuple[np.ndarray, np.ndarray]:
        """The PM / VM feature arrays the embedding MLPs take.

        Float32 inference casts the features once; every downstream layer
        then runs in single precision against cached float32 weight copies
        (see repro.nn.layers._float32_params).
        """
        pm_inputs, vm_inputs = batch.pm_features, batch.vm_features
        if self.config.inference_dtype == "float32" and not grad_enabled():
            pm_inputs = pm_inputs.astype(np.float32)
            vm_inputs = vm_inputs.astype(np.float32)
        return pm_inputs, vm_inputs

    def finish(
        self,
        pm_embeddings: Tensor,
        vm_embeddings: Tensor,
        tree_groups: Optional[TreeGrouping],
        vm_previous: Optional[Sequence[AttentionState]] = None,
        vm_changed: Optional[np.ndarray] = None,
    ) -> Tuple[ExtractorOutput, Optional[AttentionState]]:
        """Everything after block 0's tree stage: block 0's stages 2–3, the
        later blocks and the final norms.

        ``vm_previous`` / ``vm_changed`` let block 0's VM↔VM stage update
        from the previous step's softmax state (see
        :meth:`_AttentionBlock.interaction_stages`); the StepCache passes
        them, and block 0's new VM↔VM state is the second result.
        """
        first = self.blocks[0]
        pm_embeddings, vm_embeddings, scores, vm_state = first.interaction_stages(
            pm_embeddings, vm_embeddings, first is self.blocks[-1], vm_previous, vm_changed
        )
        for block in self.blocks[1:]:
            pm_embeddings, vm_embeddings, scores = block(
                pm_embeddings, vm_embeddings, tree_groups,
                want_scores=block is self.blocks[-1],
            )
        output = ExtractorOutput(
            vm_embeddings=(
                self.final_norm_vm(vm_embeddings) if vm_embeddings.shape[-2] else vm_embeddings
            ),
            pm_embeddings=self.final_norm_pm(pm_embeddings),
            vm_pm_scores=scores,
        )
        return output, vm_state


class VanillaAttentionExtractor(SparseAttentionExtractor):
    """Ablation: identical architecture without the tree-local attention stage."""

    use_tree_attention = False


class MLPExtractor(Module):
    """Ablation: one big MLP over the concatenation of every machine's features.

    The flattened input length is fixed at construction time from
    ``max_pms`` / ``max_vms``; observations with fewer machines are zero-padded
    and larger ones rejected.  The per-machine embeddings are produced by
    reshaping the MLP output, so the trainable parameter count grows linearly
    with the cluster size — the scaling problem the paper points out.
    """

    def __init__(
        self,
        config: ModelConfig,
        max_pms: int,
        max_vms: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if max_pms <= 0 or max_vms <= 0:
            raise ValueError("max_pms and max_vms must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.config = config
        self.max_pms = max_pms
        self.max_vms = max_vms
        dim = config.embed_dim
        input_dim = max_pms * PM_FEATURE_DIM + max_vms * VM_FEATURE_DIM
        output_dim = (max_pms + max_vms) * dim
        hidden = [config.feedforward_dim, config.feedforward_dim]
        self.network = MLP(input_dim, hidden, output_dim, rng=rng)

    def forward(self, batch: FeatureBatch) -> ExtractorOutput:
        if batch.num_pms > self.max_pms or batch.num_vms > self.max_vms:
            raise ValueError(
                f"observation with {batch.num_pms} PMs / {batch.num_vms} VMs exceeds the "
                f"MLP extractor capacity ({self.max_pms} PMs / {self.max_vms} VMs)"
            )
        pm_features, vm_features = batch.pm_features, batch.vm_features
        count = pm_features.shape[0]
        vm_start = self.max_pms * PM_FEATURE_DIM
        flat = np.zeros((count, vm_start + self.max_vms * VM_FEATURE_DIM))
        flat[:, : batch.num_pms * PM_FEATURE_DIM] = pm_features.reshape(count, -1)
        flat[:, vm_start : vm_start + batch.num_vms * VM_FEATURE_DIM] = vm_features.reshape(count, -1)
        output = self.network(Tensor(flat)).reshape(
            count, self.max_pms + self.max_vms, self.config.embed_dim
        )
        return ExtractorOutput(
            vm_embeddings=output[:, self.max_pms : self.max_pms + batch.num_vms],
            pm_embeddings=output[:, : batch.num_pms],
            vm_pm_scores=np.zeros((count, batch.num_vms, batch.num_pms)),
        )


def build_extractor(
    config: ModelConfig,
    rng: Optional[np.random.Generator] = None,
    max_pms: Optional[int] = None,
    max_vms: Optional[int] = None,
) -> Module:
    """Instantiate the extractor requested by ``config.extractor``."""
    if config.extractor == "sparse":
        return SparseAttentionExtractor(config, rng=rng)
    if config.extractor == "vanilla":
        return VanillaAttentionExtractor(config, rng=rng)
    if config.extractor == "mlp":
        if max_pms is None or max_vms is None:
            raise ValueError("the MLP extractor requires max_pms and max_vms")
        return MLPExtractor(config, max_pms=max_pms, max_vms=max_vms, rng=rng)
    raise ValueError(f"unknown extractor {config.extractor!r}")
