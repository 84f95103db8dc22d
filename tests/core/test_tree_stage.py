"""The grouped tree stage against the padded whole-layer oracle.

``TreeGrouping.apply`` runs an encoder layer's per-row work on the real rows
and pads only the score core; ``oracles.padded_tree_stage`` runs the whole
layer on the padded per-tree groups.  They compute the same function: the
forward to ≤1e-12 (bitwise in practice), input and parameter gradients to
≤1e-10 of the largest gradient entry (the k-projection bias has an exactly
zero gradient in exact arithmetic, so only rounding noise is left of it).
The StepCache reruns dirty trees through the same ``apply``; its stage-1
rows must match a full pass over the same embeddings.
"""

import itertools

import numpy as np
import pytest

import oracles
from repro.cluster import ConstraintConfig
from repro.core import ModelConfig
from repro.core.features import (
    FeatureBatch,
    _bucket_widths,
    build_feature_batch,
    stack_feature_batches,
)
from repro.core.policy import TwoStagePolicy
from repro.core.step_cache import StepCache
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env.vmr_env import VMRescheduleEnv
from repro.nn import Tensor, TransformerEncoderLayer, no_grad

DIM, HEADS = 16, 2


def host_batch(hosts: np.ndarray, num_pms: int) -> FeatureBatch:
    """A feature batch carrying only what the grouping reads: host rows
    (one row per observation; a 1-D ``hosts`` is a batch of one)."""
    hosts = np.atleast_2d(hosts)
    rows, num_vms = hosts.shape
    return FeatureBatch(
        pm_features=np.zeros((rows, num_pms, 1)),
        vm_features=np.zeros((rows, num_vms, 1)),
        hosts=hosts,
        num_pms=num_pms,
        num_vms=num_vms,
    )


def random_hosts(rng, num_pms: int, num_vms: int, unplaced: int = 0) -> np.ndarray:
    hosts = rng.integers(0, num_pms, size=num_vms)
    hosts[rng.choice(num_vms, size=unplaced, replace=False)] = -1
    return hosts


def skewed_hosts(num_pms: int = 30, big: int = 40) -> np.ndarray:
    """One PM hosting ``big`` VMs, every other PM one: two size classes."""
    return np.concatenate([np.zeros(big, dtype=int), np.arange(1, num_pms)])


def train_stack(rows: int = 32) -> FeatureBatch:
    """A training minibatch: ``rows`` observations along episodes."""
    spec = ClusterSpec(name="tree-stage", num_pms=8, target_utilization=0.8, best_fit_fraction=0.3)
    env = VMRescheduleEnv(SnapshotGenerator(spec, seed=1).generate(), ConstraintConfig(migration_limit=8))
    rng = np.random.default_rng(0)
    observation, batches = env.reset(), []
    for _ in range(rows):
        batches.append(build_feature_batch(observation))
        vm = rng.choice(np.flatnonzero(observation.vm_mask))
        pm = rng.choice(np.flatnonzero(env.pm_action_mask(vm)))
        observation, _, done, _ = env.step((vm, pm))
        if done:
            observation = env.reset()
    return stack_feature_batches(batches)


def layouts():
    rng = np.random.default_rng(3)
    return {
        "one_bucket": (host_batch(random_hosts(rng, 8, 50), 8), 1),
        "two_buckets": (host_batch(skewed_hosts(), 30), 2),
        "unplaced_singletons": (host_batch(random_hosts(rng, 10, 60, unplaced=7), 10), None),
        "stacked_unplaced": (
            host_batch(np.stack([random_hosts(rng, 6, 30, unplaced=u) for u in (0, 3, 5)]), 6),
            None,
        ),
        "train_32_rows": (train_stack(), None),
    }


LAYOUTS = layouts()


def run(stage, grouping, layer, x):
    """Forward, input gradient and parameter gradients of ``stage``."""
    for parameter in layer.parameters():
        parameter.grad = None
    inputs = Tensor(x, requires_grad=True)
    out = stage(grouping, layer, inputs)
    weights = np.random.default_rng(7).normal(size=out.shape)
    (out * Tensor(weights)).sum().backward()
    grads = {name: p.grad for name, p in layer.named_parameters()}
    return out.data, inputs.grad, grads


def grouped_stage(grouping, layer, x):
    return grouping.apply(layer, x)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_grouped_stage_matches_padded_layer(name):
    batch, buckets = LAYOUTS[name]
    grouping = batch.tree_grouping()
    if buckets is not None:
        assert len(grouping.buckets) == buckets
    if "unplaced" in name:
        assert (np.asarray(batch.hosts) < 0).any()
    rows = len(batch.hosts)
    layer = TransformerEncoderLayer(DIM, HEADS, 32, rng=np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(rows, batch.sequence_length, DIM))

    out, x_grad, grads = run(grouped_stage, grouping, layer, x)
    ref_out, ref_x_grad, ref_grads = run(oracles.padded_tree_stage, grouping, layer, x)

    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(x_grad, ref_x_grad, rtol=0, atol=1e-10 * np.abs(ref_x_grad).max())
    scale = max(np.abs(grad).max() for grad in ref_grads.values())
    assert set(grads) == set(ref_grads)
    for key, grad in ref_grads.items():
        np.testing.assert_allclose(grads[key], grad, rtol=0, atol=1e-10 * scale, err_msg=key)


def test_grouped_stage_no_grad_is_the_grad_forward():
    batch, _ = LAYOUTS["train_32_rows"]
    grouping = batch.tree_grouping()
    layer = TransformerEncoderLayer(DIM, HEADS, 32, rng=np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(len(batch.hosts), batch.sequence_length, DIM))
    tracked = grouping.apply(layer, Tensor(x, requires_grad=True)).data
    with no_grad():
        untracked = grouping.apply(layer, Tensor(x)).data
    assert np.array_equal(tracked, untracked)


def test_bucket_widths_are_the_cheapest_split():
    """The dynamic program against every split of the distinct sizes."""
    from repro.core.features import _BUCKET_SCORES

    rng = np.random.default_rng(0)
    for _ in range(20):
        sizes = rng.integers(1, rng.integers(2, 14), size=rng.integers(1, 80))
        distinct = np.unique(sizes)

        def cost(widths):
            padded = np.asarray(widths)[np.searchsorted(widths, sizes)]
            return int((padded**2).sum()) + _BUCKET_SCORES * len(widths)

        best = min(
            cost(list(cuts) + [int(distinct[-1])])
            for count in range(len(distinct))
            for cuts in itertools.combinations(distinct[:-1].tolist(), count)
        )
        widths = _bucket_widths(sizes)
        assert widths[-1] == distinct[-1] and cost(widths) == best


def test_step_cache_dirty_trees_match_a_full_pass():
    """A cached step reruns only its dirty trees, through ``apply``, padded
    to the full pass's widths: every stage-1 row equals a full pass over the
    same embeddings to ≤1e-12 (BLAS may round a few-row GEMM differently
    from a full one, so not bitwise)."""
    spec = ClusterSpec(name="tree-stage", num_pms=32, target_utilization=0.8, best_fit_fraction=0.3)
    env = VMRescheduleEnv(SnapshotGenerator(spec, seed=4).generate(), ConstraintConfig(migration_limit=6))
    policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
    layer = policy.extractor.blocks[0].tree_attention
    cache = StepCache()
    rng = np.random.default_rng(5)
    observation = env.reset()
    partial_steps = 0
    with no_grad():
        for _ in range(6):
            stacked, _ = cache.forward(policy.extractor, [observation])
            entry = cache._entries[observation.delta.chain_id]
            if observation.delta.step_index > 0:
                embeddings = np.concatenate([entry.h_pm, entry.h_vm])
                full = stacked.tree_grouping().apply(layer, Tensor(embeddings[None])).data[0]
                dirty, _ = StepCache._dirty_trees(stacked.tree_layout(0), observation)
                assert 0 < dirty.size < stacked.sequence_length
                np.testing.assert_allclose(entry.stage1, full, rtol=0, atol=1e-12)
                partial_steps += 1
            vm = rng.choice(np.flatnonzero(observation.vm_mask))
            pm = rng.choice(np.flatnonzero(env.pm_action_mask(vm)))
            observation, _, done, _ = env.step((vm, pm))
            if done:
                break
    assert partial_steps >= 3
