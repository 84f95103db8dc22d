"""End-to-end integration tests across datasets, env, baselines, core and analysis."""

import numpy as np
import pytest

from repro.analysis import render_trace, trace_plan
from repro.baselines import FilteringHeuristic, MIPRescheduler, evaluate_plan
from repro.cluster import ConstraintConfig, apply_plan
from repro.core import ModelConfig, PPOConfig, RiskSeekingConfig, VMR2LAgent, VMR2LConfig
from repro.datasets import ClusterSpec, DatasetReader, build_dataset
from repro.env import VMRescheduleEnv


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    splits, written = build_dataset(
        ClusterSpec(num_pms=6, target_utilization=0.72),
        num_mappings=6,
        root=root,
        seed=0,
        fractions={"train": 0.5, "validation": 0.25, "test": 0.25},
    )
    return written


def test_dataset_to_plan_pipeline(dataset):
    """Load a persisted dataset, plan with HA and MIP, and apply the plans."""
    reader = DatasetReader(dataset)
    train = reader.load_split("train")
    test = reader.load_split("test")
    assert train and test
    state = test[0]
    ha = evaluate_plan(state, FilteringHeuristic().compute_plan(state, 4))
    mip = evaluate_plan(state, MIPRescheduler(time_limit_s=20).compute_plan(state, 4))
    assert mip.final_objective <= ha.final_objective + 1e-6


def test_dataset_to_agent_pipeline(dataset):
    """Train a tiny agent on the persisted train split and plan on the test split."""
    reader = DatasetReader(dataset)
    train = reader.load_split("train")
    test = reader.load_split("test")
    config = VMR2LConfig(
        model=ModelConfig(embed_dim=16, num_heads=2, num_blocks=1, feedforward_dim=32),
        ppo=PPOConfig(rollout_steps=16, minibatch_size=8, update_epochs=1),
        risk_seeking=RiskSeekingConfig(num_trajectories=2),
        migration_limit=4,
    )
    agent = VMR2LAgent(config, constraint_config=ConstraintConfig(migration_limit=4), seed=0)
    agent.train_on_states(train, total_steps=16)
    result = agent.compute_plan(test[0], migration_limit=4)
    evaluation = evaluate_plan(test[0], result)
    assert evaluation.num_skipped == 0
    # The plan can be visualized step by step (the Fig. 21 tool).
    traces = trace_plan(test[0], result.plan)
    if traces:
        assert "step 1" in render_trace(traces, max_steps=1)


def test_env_rollout_matches_plan_application(dataset):
    """Stepping the env and applying the executed plan to a copy agree on FR."""
    reader = DatasetReader(dataset)
    state = reader.load_split("validation")[0]
    env = VMRescheduleEnv(state, ConstraintConfig(migration_limit=3))
    observation = env.reset()
    done = False
    while not done:
        mask = env.vm_action_mask()
        if not mask.any():
            break
        vm_index = int(np.argmax(mask))
        pm_mask = env.pm_action_mask(vm_index)
        if not pm_mask.any():
            break
        observation, _, done, _ = env.step((vm_index, int(np.argmax(pm_mask))))
    replayed, result = apply_plan(state, env.executed_plan(), skip_infeasible=False)
    assert replayed.fragment_rate() == pytest.approx(env.fragment_rate())
    assert result.num_applied == len(env.executed_plan())
