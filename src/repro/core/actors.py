"""The VM actor, PM actor and value head of the two-stage policy (§3.2–3.3).

* The **VM actor** linearly projects the VM embeddings from the feature
  extractor into per-VM logits (Fig. 6 / Fig. 8).
* The **PM actor** is an encoder–decoder: the selected VM's embedding is the
  encoder input, every PM embedding goes through the decoder's cross-attention,
  and the VM→PM attention score from the extractor's stage 3 is added to the
  logits so the two actors coordinate (Fig. 7, §3.3 "Architecture Overview").
* The **value head** pools the PM and VM embeddings into a scalar state value
  for PPO's critic.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..nn import MLP, CrossAttentionLayer, Linear, Module, Tensor, concatenate
from .attention import ExtractorOutput
from .config import ModelConfig


class VMActor(Module):
    """Project VM embeddings into stage-1 selection logits."""

    def __init__(self, config: ModelConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.projection = Linear(config.embed_dim, 1, rng=rng, gain=0.01)

    def forward(self, extractor_output: ExtractorOutput) -> Tensor:
        """Return ``(batch, num_vms)`` logits."""
        vm_embeddings = extractor_output.vm_embeddings
        logits = self.projection(vm_embeddings)
        return logits.reshape(vm_embeddings.shape[:-1])


class PMActor(Module):
    """Select a destination PM for the chosen VM (stage 2)."""

    def __init__(self, config: ModelConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        dim = config.embed_dim
        self.vm_encoder = MLP(dim, [dim], dim, rng=rng)
        self.decoder = CrossAttentionLayer(dim, config.num_heads, config.feedforward_dim, rng=rng)
        self.projection = Linear(dim, 1, rng=rng, gain=0.01)
        #: weight of the VM->PM attention-score bias added to the logits.
        self.score_weight = self.register_parameter("score_weight", Tensor(np.array([1.0])))

    def forward(
        self,
        extractor_output: ExtractorOutput,
        vm_indices: Sequence[int],
    ) -> Tensor:
        """Return ``(batch, num_pms)`` logits for each row's selected VM.

        ``extractor_output`` holds ``(batch, machines, dim)`` embeddings;
        row *i*'s PMs cross-attend to that row's selected VM embedding
        (``vm_indices[i]``) in one attention call, and the stage-3 score bias
        is gathered per row.
        """
        vm_embeddings = extractor_output.vm_embeddings
        pm_embeddings = extractor_output.pm_embeddings
        if vm_embeddings.ndim != 3:
            raise ValueError("the PM actor needs stacked (batch, machines, dim) embeddings")
        batch, num_vms = vm_embeddings.shape[0], vm_embeddings.shape[1]
        indices = np.asarray(vm_indices, dtype=int)
        if indices.shape != (batch,):
            raise ValueError(f"need one vm_index per batch row, got {indices.shape}")
        if indices.size and (indices.min() < 0 or indices.max() >= num_vms):
            raise IndexError(f"vm_indices out of range for {num_vms} VMs")
        rows = np.arange(batch)
        selected = self.vm_encoder(vm_embeddings[rows, indices]).reshape(batch, 1, -1)
        # Decoder: each row's PM embeddings attend to its selected VM embedding.
        pm_decoded = self.decoder(pm_embeddings, selected)
        logits = self.projection(pm_decoded).reshape(batch, pm_embeddings.shape[1])
        # Coordination bias: stage-3 attention scores of the selected VM.
        scores = extractor_output.vm_pm_scores
        if scores.size:
            bias = Tensor(scores[rows, indices])
            logits = logits + bias * self.score_weight
        return logits


class ValueHead(Module):
    """State-value estimate from pooled machine embeddings (PPO critic)."""

    def __init__(self, config: ModelConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        dim = config.embed_dim
        self.network = MLP(2 * dim, [dim], 1, rng=rng, final_gain=1.0)

    def forward(self, extractor_output: ExtractorOutput) -> Tensor:
        """Return ``(batch,)`` state values from ``(batch, machines, dim)``
        embeddings."""
        pm_embeddings = extractor_output.pm_embeddings
        vm_embeddings = extractor_output.vm_embeddings
        pm_pool = pm_embeddings.mean(axis=1)
        if vm_embeddings.shape[1] > 0:
            vm_pool = vm_embeddings.mean(axis=1)
        else:
            vm_pool = Tensor(np.zeros(pm_pool.shape))
        pooled = concatenate([pm_pool, vm_pool], axis=-1)
        return self.network(pooled).reshape(pooled.shape[0])
