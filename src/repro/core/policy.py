"""The two-stage VMR2L policy and its §5.4 ablation variants.

The policy wraps a feature extractor (sparse / vanilla / MLP), the VM actor,
the PM actor and the value head, and exposes the two methods PPO needs:

* :meth:`TwoStagePolicy.act_batch` — sample an action for each observation,
  returning indices, log-probability, entropy and value.  In ``two_stage``
  mode the VM candidates are masked by feasibility and, once a VM is chosen,
  every PM that cannot host it is masked out — illegal actions are impossible.
  ``penalty`` mode samples without masks (the environment punishes illegal
  actions), and ``full_joint`` mode samples from the joint VM×PM distribution
  under a full legality mask.
* :meth:`TwoStagePolicy.evaluate_actions_batch` — recompute log-probability,
  entropy and value of stored actions for the PPO update.

There is one implementation of each: a batch of one is just a batch, and
``act`` / ``evaluate_actions`` / ``value_of`` are one-element wrappers.
Action thresholding for risk-seeking evaluation (§3.4) is supported directly
in acting via probability-quantile cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..env.observation import Observation
from ..nn import Linear, Module, Tensor, concatenate
from ..nn import functional as F
from .actors import PMActor, ValueHead, VMActor
from .attention import ExtractorOutput, build_extractor
from .config import ModelConfig
from .features import FeatureBatch, build_feature_batch, stack_feature_batches
from .step_cache import StepCache


@dataclass
class PolicyOutput:
    """Everything produced by one action-selection call."""

    vm_index: int
    pm_index: int
    log_prob: float
    entropy: float
    value: float
    vm_probs: np.ndarray
    pm_probs: np.ndarray
    #: Stage-2 feasibility mask actually used to sample ``pm_index``
    #: (``two_stage`` mode only).  Consumers that need the mask afterwards
    #: (e.g. the rollout buffer) read it from here instead of re-deriving it
    #: from the environment — one mask computation per decision.
    pm_mask: Optional[np.ndarray] = None

    @property
    def action(self) -> Tuple[int, int]:
        return (self.vm_index, self.pm_index)


def _apply_threshold(probs: np.ndarray, quantile: Optional[float]) -> np.ndarray:
    """Zero out entries whose probability falls below the given quantile (§3.4).

    The cutoff is computed over the *positive* entries only: masked actions
    carry exactly zero probability and would otherwise drag the quantile to
    zero, turning the risk-seeking threshold into a no-op whenever more than
    ``quantile`` of the actions are infeasible.
    """
    if quantile is None:
        return probs
    positive = probs[probs > 0]
    if positive.size <= 1:
        return probs
    cutoff = np.quantile(positive, quantile)
    thresholded = np.where(probs >= cutoff, probs, 0.0)
    if thresholded.sum() <= 0:
        return probs
    return thresholded / thresholded.sum()


def _masked_softmax_rows(logits: np.ndarray, masks: Optional[np.ndarray]) -> np.ndarray:
    """Row-wise masked softmax on raw arrays — the batched-sampling hot path.

    Elementwise-identical to calling :func:`F.masked_softmax` on each row
    (same operation order: fill, shifted softmax, leakage zeroing,
    renormalize; all-masked rows fall back to uniform), but one vectorized
    computation replaces ``batch`` Tensor-graph constructions per step.
    """
    if masks is None:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        np.exp(shifted, out=shifted)
        shifted /= shifted.sum(axis=-1, keepdims=True)
        return shifted
    masks = np.asarray(masks, dtype=bool)
    filled = np.where(masks, logits, F.MASK_FILL_VALUE)
    filled -= filled.max(axis=-1, keepdims=True)
    np.exp(filled, out=filled)
    filled /= filled.sum(axis=-1, keepdims=True)
    probs = filled * masks
    probs /= probs.sum(axis=-1, keepdims=True) + 1e-12
    empty = ~masks.any(axis=-1)
    if empty.any():
        probs[empty] = 1.0 / logits.shape[-1]
    return probs


def _stack_masks(masks: Sequence[Optional[np.ndarray]], what: str) -> Optional[np.ndarray]:
    """Stack a mask column into ``(batch, n)``; None when every entry is None."""
    present = [mask is not None for mask in masks]
    if not any(present):
        return None
    if not all(present):
        raise ValueError(f"{what}: either every transition carries a mask or none does")
    return np.stack([np.asarray(mask, dtype=bool).reshape(-1) for mask in masks], axis=0)


def _size_groups(observations: Sequence[Observation]) -> List[List[int]]:
    """Indices of ``observations`` partitioned by ``(num_pms, num_vms)``.

    One extractor forward needs one cluster size, so a mixed-size batch runs
    as one stacked forward per size group (first-appearance order).
    """
    groups: dict = {}
    for index, observation in enumerate(observations):
        groups.setdefault((observation.num_pms, observation.num_vms), []).append(index)
    return list(groups.values())


class TwoStagePolicy(Module):
    """Feature extractor + VM actor + PM actor + value head."""

    def __init__(
        self,
        config: ModelConfig,
        rng: Optional[np.random.Generator] = None,
        max_pms: Optional[int] = None,
        max_vms: Optional[int] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.config = config
        self.extractor = build_extractor(config, rng=rng, max_pms=max_pms, max_vms=max_vms)
        self.vm_actor = VMActor(config, rng=rng)
        self.pm_actor = PMActor(config, rng=rng)
        self.value_head = ValueHead(config, rng=rng)
        if config.action_mode == "full_joint":
            # Unconditioned PM head used to build the joint distribution.
            self.joint_pm_head = Linear(config.embed_dim, 1, rng=rng, gain=0.01)

    # ------------------------------------------------------------------ #
    # Acting
    # ------------------------------------------------------------------ #
    def act(
        self,
        observation: Observation,
        pm_mask_fn: Callable[[int], np.ndarray],
        rng: np.random.Generator,
        greedy: bool = False,
        joint_mask: Optional[np.ndarray] = None,
        vm_threshold_quantile: Optional[float] = None,
        pm_threshold_quantile: Optional[float] = None,
        compute_stats: bool = True,
        step_cache: Optional[StepCache] = None,
    ) -> PolicyOutput:
        """Select a (VM, PM) action for one observation: :meth:`act_batch`
        over a batch of one (same arguments, singular)."""
        return self.act_batch(
            [observation],
            [pm_mask_fn],
            rng=rng,
            greedy=greedy,
            joint_masks=[joint_mask],
            vm_threshold_quantile=vm_threshold_quantile,
            pm_threshold_quantile=pm_threshold_quantile,
            compute_stats=compute_stats,
            step_cache=step_cache,
        )[0]

    def act_batch(
        self,
        observations: Sequence[Observation],
        pm_mask_fns: Optional[Sequence[Callable[[int], np.ndarray]]] = None,
        rng: Union[np.random.Generator, Sequence[np.random.Generator]] = None,
        greedy: bool = False,
        joint_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
        vm_threshold_quantile: Optional[float] = None,
        pm_threshold_quantile: Optional[float] = None,
        compute_stats: bool = True,
        step_cache: Optional[StepCache] = None,
    ) -> List[PolicyOutput]:
        """Select a (VM, PM) action for every observation.

        Same-size observations are stacked along a leading batch axis (see
        :func:`stack_feature_batches`) and the extractor, the critic
        and both actors run once over ``(batch, machines, dim)`` tensors; a
        mixed-size batch runs one such forward per size group.  Batch rows
        never interact, so N calls with one observation each compute the
        same actions as one call with N.

        In ``two_stage`` mode the VM candidates are masked by feasibility
        and, once a VM is chosen, every PM that cannot host it is masked out.
        Stage-2 masks come from ``pm_mask_fns``: one per-environment callable
        mapping the chosen VM index to its mask, usually
        ``env.pm_action_mask``.  ``joint_masks`` is required in
        ``full_joint`` mode; ``penalty`` mode uses no masks.

        ``rng`` is one generator for the whole batch (rows draw from it in
        row order, stage 1 before stage 2) or one generator per row, so a
        row's sampled action depends only on its own generator.

        ``compute_stats=False`` skips the entropy terms (reported as 0.0) —
        the sampled action and probabilities are unchanged; serving rollouts
        use it since only PPO consumes the entropy.  ``step_cache`` enables
        step-incremental featurization/encoding for consecutive no-grad steps
        of one episode (ignored unless the forward runs under ``no_grad``).
        """
        if rng is None:
            raise ValueError("act_batch requires an rng")
        rngs = [rng] * len(observations) if isinstance(rng, np.random.Generator) else list(rng)
        if len(rngs) != len(observations):
            raise ValueError("need one generator per observation")
        if pm_mask_fns is not None and len(observations) != len(pm_mask_fns):
            raise ValueError("need one pm_mask_fn per observation")
        two_stage = self.config.action_mode == "two_stage"
        if two_stage and pm_mask_fns is None:
            raise ValueError("two_stage mode needs pm_mask_fns")
        if self.config.action_mode == "full_joint" and (
            joint_masks is None or any(mask is None for mask in joint_masks)
        ):
            raise ValueError("full_joint mode requires the joint legality mask")
        outputs: List[Optional[PolicyOutput]] = [None] * len(observations)
        for rows in _size_groups(observations):
            group_outputs = self._act_same_size(
                [observations[row] for row in rows],
                pm_mask_fns=None if pm_mask_fns is None else [pm_mask_fns[row] for row in rows],
                joint_masks=None if joint_masks is None else [joint_masks[row] for row in rows],
                rngs=[rngs[row] for row in rows],
                greedy=greedy,
                vm_threshold_quantile=vm_threshold_quantile,
                pm_threshold_quantile=pm_threshold_quantile,
                compute_stats=compute_stats,
                step_cache=step_cache,
            )
            for row, output in zip(rows, group_outputs):
                outputs[row] = output
        return outputs

    def _act_same_size(
        self,
        observations: Sequence[Observation],
        *,
        pm_mask_fns,
        joint_masks,
        rngs: Sequence[np.random.Generator],
        greedy: bool,
        vm_threshold_quantile: Optional[float],
        pm_threshold_quantile: Optional[float],
        compute_stats: bool,
        step_cache: Optional[StepCache],
    ) -> List[PolicyOutput]:
        """:meth:`act_batch` for observations sharing one cluster size."""
        if step_cache is not None and step_cache.usable(self.extractor):
            _, extractor_output = step_cache.forward(self.extractor, observations)
        else:
            extractor_output = self.extractor(
                stack_feature_batches([build_feature_batch(obs) for obs in observations])
            )
        num_envs = len(observations)
        values = self.value_head(extractor_output).numpy()
        entropies = np.zeros(num_envs)

        if self.config.action_mode == "full_joint":
            joint_logits = self._joint_logits(extractor_output)
            flat_masks = _stack_masks(joint_masks, "joint_masks")
            prob_rows = _masked_softmax_rows(joint_logits.numpy(), flat_masks)
            if compute_stats:
                entropies = F.categorical_entropy(joint_logits, flat_masks).numpy()
            outputs: List[PolicyOutput] = []
            num_pms = observations[0].num_pms
            for index in range(num_envs):
                probs = prob_rows[index]
                flat_index = F.sample_categorical(probs, rngs[index], greedy=greedy)
                vm_index, pm_index = divmod(flat_index, num_pms)
                joint_probs = probs.reshape(-1, num_pms)
                pm_probs = joint_probs[vm_index]
                outputs.append(
                    PolicyOutput(
                        vm_index=int(vm_index),
                        pm_index=int(pm_index),
                        log_prob=float(np.log(probs[flat_index] + 1e-12)),
                        entropy=float(entropies[index]),
                        value=float(values[index]),
                        vm_probs=joint_probs.sum(axis=1),
                        pm_probs=pm_probs / pm_probs.sum() if pm_probs.sum() > 0 else pm_probs,
                    )
                )
            return outputs

        # Stage 1: one batched VM-actor forward; probabilities for the whole
        # step come from ONE vectorized masked softmax on the raw logits
        # (elementwise-identical to the per-row Tensor path), sampled per row.
        use_masks = self.config.action_mode == "two_stage"
        vm_logit_rows = self.vm_actor(extractor_output)  # (batch, V)
        vm_mask_rows = (
            np.stack([observation.vm_mask for observation in observations], axis=0)
            if use_masks
            else None
        )
        vm_prob_rows = _masked_softmax_rows(vm_logit_rows.numpy(), vm_mask_rows)
        vm_indices: List[int] = []
        vm_probs_list: List[np.ndarray] = []
        for index in range(num_envs):
            vm_probs = _apply_threshold(vm_prob_rows[index], vm_threshold_quantile)
            vm_indices.append(F.sample_categorical(vm_probs, rngs[index], greedy=greedy))
            vm_probs_list.append(vm_probs)

        # Stage 2: the PM decoder runs batched inside PMActor — each row's PMs
        # cross-attend to that row's selected VM embedding, and the stage-3
        # score bias is gathered per row.  Sampling is vectorized like stage 1.
        pm_logit_rows = self.pm_actor(extractor_output, vm_indices)
        pm_mask_rows = (
            np.stack([pm_mask_fns[i](vm_indices[i]) for i in range(num_envs)], axis=0)
            if use_masks
            else None
        )
        pm_prob_rows = _masked_softmax_rows(pm_logit_rows.numpy(), pm_mask_rows)
        if compute_stats:
            entropies = (
                F.categorical_entropy(vm_logit_rows, vm_mask_rows)
                + F.categorical_entropy(pm_logit_rows, pm_mask_rows)
            ).numpy()

        outputs = []
        for index in range(num_envs):
            pm_probs = _apply_threshold(pm_prob_rows[index], pm_threshold_quantile)
            pm_index = F.sample_categorical(pm_probs, rngs[index], greedy=greedy)
            log_prob = float(
                np.log(vm_probs_list[index][vm_indices[index]] + 1e-12)
                + np.log(pm_probs[pm_index] + 1e-12)
            )
            outputs.append(
                PolicyOutput(
                    vm_index=vm_indices[index],
                    pm_index=pm_index,
                    log_prob=log_prob,
                    entropy=float(entropies[index]),
                    value=float(values[index]),
                    vm_probs=vm_probs_list[index],
                    pm_probs=pm_probs,
                    pm_mask=None if pm_mask_rows is None else pm_mask_rows[index],
                )
            )
        return outputs

    def _joint_logits(self, extractor_output: ExtractorOutput) -> Tensor:
        """``(batch, num_vms * num_pms)`` logits of the joint VM×PM action."""
        vm_logits = self.vm_actor(extractor_output)  # (batch, V)
        batch, num_vms = vm_logits.shape
        pm_logits = self.joint_pm_head(extractor_output.pm_embeddings).reshape(batch, 1, -1)
        return (vm_logits.reshape(batch, num_vms, 1) + pm_logits).reshape(batch, -1)

    # ------------------------------------------------------------------ #
    # Evaluation for PPO updates (differentiable path)
    # ------------------------------------------------------------------ #
    def evaluate_actions(
        self,
        observation: Observation,
        vm_index: int,
        pm_index: int,
        vm_mask: Optional[np.ndarray],
        pm_mask: Optional[np.ndarray],
        joint_mask: Optional[np.ndarray] = None,
        feature_batch: Optional[FeatureBatch] = None,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Differentiable ``(1,)``-shaped (log_prob, entropy, value) of one
        stored action: :meth:`evaluate_actions_batch` over a batch of one."""
        return self.evaluate_actions_batch(
            [observation],
            [vm_index],
            [pm_index],
            vm_masks=[vm_mask],
            pm_masks=[pm_mask],
            joint_masks=[joint_mask],
            feature_batches=None if feature_batch is None else [feature_batch],
        )

    def evaluate_actions_batch(
        self,
        observations: Sequence[Observation],
        vm_indices: Sequence[int],
        pm_indices: Sequence[int],
        vm_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
        pm_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
        joint_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
        feature_batches: Optional[Sequence[FeatureBatch]] = None,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Differentiable ``(batch,)``-shaped log-probs, entropies and values.

        The minibatch runs through ONE stacked extractor forward plus batched
        actor heads per cluster size present (a mixed-size minibatch is
        partitioned like :meth:`act_batch` and the per-size results are
        scattered back into minibatch order), so the PPO update always
        computes its losses as single tensor expressions with one backward.

        ``feature_batches`` passes cached per-transition featurizations (see
        :meth:`RolloutBuffer.feature_batch`).
        """
        count = len(observations)
        if count == 0:
            raise ValueError("need at least one observation")
        for name, seq in (("vm_indices", vm_indices), ("pm_indices", pm_indices)):
            if len(seq) != count:
                raise ValueError(f"{name} length {len(seq)} != {count} observations")
        vm_masks = list(vm_masks) if vm_masks is not None else [None] * count
        pm_masks = list(pm_masks) if pm_masks is not None else [None] * count
        joint_masks = list(joint_masks) if joint_masks is not None else [None] * count
        if feature_batches is None:
            feature_batches = [build_feature_batch(obs) for obs in observations]
        elif len(feature_batches) != count:
            raise ValueError("need one feature batch per observation")

        groups = _size_groups(observations)
        results = []
        for rows in groups:
            batch = stack_feature_batches([feature_batches[row] for row in rows])
            extractor_output = self.extractor(batch)
            values = self.value_head(extractor_output)  # (rows,)
            vm_actions = np.array([vm_indices[row] for row in rows], dtype=int)
            pm_actions = np.array([pm_indices[row] for row in rows], dtype=int)
            if self.config.action_mode == "full_joint":
                logits = self._joint_logits(extractor_output)
                masks = _stack_masks([joint_masks[row] for row in rows], "joint_masks")
                actions = vm_actions * batch.num_pms + pm_actions
                log_probs = F.categorical_log_prob(logits, actions, masks)
                entropies = F.categorical_entropy(logits, masks)
            else:
                vm_logits = self.vm_actor(extractor_output)  # (rows, V)
                pm_logits = self.pm_actor(extractor_output, vm_actions)  # (rows, P)
                vm_mask_rows = _stack_masks([vm_masks[row] for row in rows], "vm_masks")
                pm_mask_rows = _stack_masks([pm_masks[row] for row in rows], "pm_masks")
                log_probs = F.categorical_log_prob(vm_logits, vm_actions, vm_mask_rows) + (
                    F.categorical_log_prob(pm_logits, pm_actions, pm_mask_rows)
                )
                entropies = F.categorical_entropy(vm_logits, vm_mask_rows) + (
                    F.categorical_entropy(pm_logits, pm_mask_rows)
                )
            results.append((log_probs, entropies, values))
        if len(groups) == 1:
            return tuple(part.reshape(count) for part in results[0])
        # Scatter the per-size results back into minibatch order.
        order = np.argsort(np.concatenate(groups), kind="stable")
        return tuple(
            concatenate([result[part].reshape(-1) for result in results])[order]
            for part in range(3)
        )

    def value_of(self, observation: Observation) -> float:
        """State value only (used for bootstrapping at rollout boundaries)."""
        return self.value_of_batch([observation])[0]

    def value_of_batch(self, observations: Sequence[Observation]) -> List[float]:
        """State values, one stacked forward per cluster size present."""
        values: List[float] = [0.0] * len(observations)
        for rows in _size_groups(observations):
            batch = stack_feature_batches([build_feature_batch(observations[row]) for row in rows])
            for row, value in zip(rows, self.value_head(self.extractor(batch)).numpy()):
                values[row] = float(value)
        return values
