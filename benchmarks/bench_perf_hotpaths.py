"""Hot-path benchmark: absolute times of the vectorized core's hot paths.

Times destination-mask construction, observation build, ``ClusterState.copy``,
single-observation and large-cluster ``act``, attention, float32-inference
collection and one PPO update epoch on a medium cluster, plus two live-path
comparisons — one PPO rollout epoch (vectorized env + batched policy forward
vs a single env) and greedy rollout steps with vs without the StepCache — and
emits ``BENCH_perf_hotpaths.json`` so future PRs can track the trajectory.
The loop implementations the masks and featurization replaced are parity
oracles in ``tests/oracles.py``, not timed here.

Run:  PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py [--smoke] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro.cluster import ConstraintChecker, ConstraintConfig, assign_anti_affinity_groups
from repro.core import ModelConfig, PPOConfig
from repro.core.policy import TwoStagePolicy
from repro.core.ppo import PPOTrainer
from repro.core.step_cache import StepCache
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env import SyncVectorEnv, VMRescheduleEnv
from repro.env.observation import ObservationBuilder
from repro.nn import MultiHeadAttention, Tensor, no_grad


def _medium_state(num_pms: int, seed: int = 0):
    spec = ClusterSpec(
        name="perf-medium",
        num_pms=num_pms,
        target_utilization=0.78,
        best_fit_fraction=0.3,
    )
    state = SnapshotGenerator(spec, seed=seed).generate()
    rng = np.random.default_rng(seed + 1)
    groups = max(state.num_vms // 40, 1)
    if groups * 3 <= state.num_vms:
        assign_anti_affinity_groups(state, groups, 3, rng)
    return state


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time (the timeit-style noise-robust estimator:
    the minimum is a lower bound unaffected by noisy-neighbor stalls, which
    inflate a mean asymmetrically on shared CI runners)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(smoke: bool = False, output: Path | None = None) -> dict:
    num_pms = 10 if smoke else 60
    mask_repeats = 8 if smoke else 10
    obs_repeats = 8 if smoke else 20
    copy_repeats = 10 if smoke else 50
    state = _medium_state(num_pms)
    checker = ConstraintChecker(ConstraintConfig(migration_limit=25))
    vm_ids = state.placed_vm_ids()
    sample = vm_ids[:: max(len(vm_ids) // (5 if smoke else 40), 1)]

    results: dict = {}

    def record(name: str, legacy_s: float, vectorized_s: float) -> None:
        results[name] = {
            "legacy_s": legacy_s,
            "vectorized_s": vectorized_s,
            "speedup": legacy_s / vectorized_s if vectorized_s > 0 else float("inf"),
        }

    def record_absolute(name: str, seconds: float) -> None:
        """A path with no second implementation left to compare against: the
        commit-to-commit comparison lives in BENCHMARK.json's workloads
        (``train_ppo_small`` / ``large_rl_service_seq``) and their probes."""
        results[name] = {"seconds": seconds}

    # 1. Stage-2 destination masks over a sample of VMs (+ stage-1 mask).
    state.arrays()  # build once so the steady-state (incrementally synced) path is measured
    record_absolute(
        "destination_mask",
        _time(lambda: [checker.destination_mask(state, v) for v in sample], mask_repeats),
    )
    # A fresh checker per call defeats the feasibility-matrix memo, so the
    # timing reflects the per-step cost on a state that mutated since the
    # last mask (the memo only helps the *other* consumers of one step).
    config = checker.config
    record_absolute(
        "movable_vm_mask",
        _time(lambda: ConstraintChecker(config).movable_vm_mask(state), mask_repeats),
    )

    # 2. Observation build (features + stage-1 mask + normalization).
    record_absolute(
        "observation_build",
        _time(lambda: ObservationBuilder(ConstraintChecker(config)).build(state, 25), obs_repeats),
    )

    # 3. State copy (MCTS / MIP warm-start hot path).
    record_absolute("cluster_state_copy", _time(lambda: state.copy(), copy_repeats))

    # 4. One PPO rollout epoch: batched vectorized env vs per-env forwards.
    # The cluster size matches the repo's "medium" analogue at default bench
    # scale (benchmarks/common.py MEDIUM_PMS).
    rollout_steps = 8 if smoke else 64
    num_envs = 2 if smoke else 8
    ppo_pms = 6 if smoke else 10
    rollout_state = _medium_state(ppo_pms, seed=3)
    constraint_config = ConstraintConfig(migration_limit=8)

    def env_factory():
        return VMRescheduleEnv(rollout_state.copy(), constraint_config=constraint_config, seed=0)

    ppo_config = PPOConfig(
        rollout_steps=rollout_steps, minibatch_size=rollout_steps, update_epochs=1, seed=0
    )
    policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
    rollout_repeats = 1 if smoke else 3
    single_trainer = PPOTrainer(policy, env_factory(), ppo_config)
    single_trainer.collect_rollout()  # warm-up
    legacy_rollout_s = _time(lambda: single_trainer.collect_rollout(), rollout_repeats)
    vector_trainer = PPOTrainer(
        policy, SyncVectorEnv([env_factory for _ in range(num_envs)]), ppo_config
    )
    vector_trainer.collect_rollout()  # warm-up
    vector_rollout_s = _time(lambda: vector_trainer.collect_rollout(), rollout_repeats)
    # Both collect rollout_steps transitions; the vectorized trainer does it
    # with rollout_steps / num_envs batched policy forwards.
    record("ppo_rollout_epoch", legacy_rollout_s, vector_rollout_s)

    # 4b. Single-observation act (grad-tracking, grouped sparse tree stage)
    # on the big featurization cluster.
    act_env = VMRescheduleEnv(state.copy(), constraint_config=ConstraintConfig(migration_limit=25))
    act_observation = act_env.reset()
    act_policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
    act_repeats = 2 if smoke else 5

    def act_once():
        act_policy.act(
            act_observation, pm_mask_fn=act_env.pm_action_mask, rng=np.random.default_rng(0)
        )

    act_once()  # warm-up
    record_absolute("act_single_sparse", _time(act_once, act_repeats))

    # 4b-large. Large-V serving case (~200 PMs / ~2000 VMs at full scale):
    # the VM↔VM self-attention stage bounds the inference forward here.  One
    # tiled kernel (`repro.nn.attention._attention_array`) runs every
    # attention, no-grad and grad-tracking alike, so these are absolute times:
    #   vm_attention_large      — the VM↔VM attention stage alone, no-grad;
    #   vm_attention_large_grad — the same stage grad-tracking, forward +
    #                             backward (the `_attention` node);
    #   act_large_inference     — one full no-grad `act` forward;
    #   rollout_cached_steps    — per-step cost of a greedy multi-step
    #                             rollout, fresh featurize/encode vs the
    #                             StepCache.
    large_pms = 12 if smoke else 200
    large_spec = ClusterSpec(
        name="perf-large",
        num_pms=large_pms,
        target_utilization=0.78,
        best_fit_fraction=0.1,
    )
    large_state = SnapshotGenerator(large_spec, seed=7).generate()
    large_v = large_state.num_vms
    attn_rng = np.random.default_rng(0)
    vm_stream = attn_rng.normal(size=(large_v, ModelConfig().embed_dim))
    attention = MultiHeadAttention(
        ModelConfig().embed_dim, ModelConfig().num_heads, rng=np.random.default_rng(1)
    )
    attn_repeats = 2 if smoke else 5
    vm_tensor = Tensor(vm_stream)
    with no_grad():
        record_absolute(
            "vm_attention_large",
            _time(lambda: attention(vm_tensor, vm_tensor, vm_tensor), attn_repeats),
        )
    results["vm_attention_large"]["num_vms"] = large_v

    def attention_grad_step() -> None:
        x = Tensor(vm_stream, requires_grad=True)
        attention(x, x, x).sum().backward()

    record_absolute("vm_attention_large_grad", _time(attention_grad_step, attn_repeats))
    results["vm_attention_large_grad"]["num_vms"] = large_v

    def large_act_seconds(repeats: int) -> float:
        policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
        env = VMRescheduleEnv(
            large_state.copy(), constraint_config=ConstraintConfig(migration_limit=25)
        )
        observation = env.reset()

        def once():
            with no_grad():
                policy.act(
                    observation,
                    pm_mask_fn=env.pm_action_mask,
                    rng=np.random.default_rng(0),
                    greedy=True,
                    compute_stats=False,
                )

        once()  # warm-up
        return _time(once, repeats)

    large_act_repeats = 2 if smoke else 3
    record_absolute("act_large_inference", large_act_seconds(large_act_repeats))
    results["act_large_inference"]["cluster"] = {
        "num_pms": large_state.num_pms, "num_vms": large_v,
    }

    def rollout_per_step_seconds(use_cache: bool, steps: int, repeats: int) -> float:
        policy = TwoStagePolicy(ModelConfig(), rng=np.random.default_rng(0))
        env = VMRescheduleEnv(
            large_state.copy(), constraint_config=ConstraintConfig(migration_limit=steps)
        )

        def episode() -> None:
            observation = env.reset()
            cache = StepCache() if use_cache else None
            done = False
            while not done and observation.vm_mask.any():
                with no_grad():
                    output = policy.act(
                        observation,
                        pm_mask_fn=env.pm_action_mask,
                        rng=np.random.default_rng(0),
                        greedy=True,
                        compute_stats=False,
                        step_cache=cache,
                    )
                observation, _, done, _ = env.step(output.action)

        episode()  # warm-up
        return _time(episode, repeats) / max(env.steps_taken, 1)

    cached_steps = 4 if smoke else 10
    cached_repeats = 1 if smoke else 2
    record(
        "rollout_cached_steps",
        rollout_per_step_seconds(False, cached_steps, cached_repeats),
        rollout_per_step_seconds(True, cached_steps, cached_repeats),
    )
    results["rollout_cached_steps"]["steps"] = cached_steps

    # 4c. Collection with no-grad float32 inference forwards
    # (ModelConfig(inference_dtype="float32")) over many envs of a 20-PM
    # cluster.
    inference_pms = 6 if smoke else 20
    inference_envs = 4 if smoke else 32
    inference_steps = 8 if smoke else 64
    inference_state = _medium_state(inference_pms, seed=3)
    inference_constraints = ConstraintConfig(migration_limit=8)
    inference_trainer = PPOTrainer(
        TwoStagePolicy(ModelConfig(inference_dtype="float32"), rng=np.random.default_rng(0)),
        SyncVectorEnv([
            partial(VMRescheduleEnv, inference_state.copy(), inference_constraints)
            for _ in range(inference_envs)
        ]),
        PPOConfig(
            rollout_steps=inference_steps, minibatch_size=inference_steps, update_epochs=1, seed=0
        ),
    )
    inference_trainer.collect_rollout()  # warm-up
    record_absolute(
        "rollout_epoch_sync_inference",
        _time(lambda: inference_trainer.collect_rollout(), rollout_repeats),
    )

    # 5. One full PPO update (default 4 epochs) over a fixed rollout: one
    # stacked evaluate_actions_batch forward per minibatch with
    # once-per-rollout cached featurization, grouped sparse tree attention
    # and the fused kernels.
    update_buffer = single_trainer.collect_rollout()
    update_repeats = 1 if smoke else 3
    update_epochs = 1 if smoke else 4
    update_trainer = PPOTrainer(
        policy,
        env_factory(),
        PPOConfig(
            rollout_steps=rollout_steps, minibatch_size=rollout_steps,
            update_epochs=update_epochs, seed=0,
        ),
    )
    update_trainer.update(update_buffer)  # warm-up (also fills the feature cache)
    record_absolute(
        "ppo_update_epoch", _time(lambda: update_trainer.update(update_buffer), update_repeats)
    )

    payload = {
        "benchmark": "perf_hotpaths",
        "smoke": smoke,
        "cluster": {"num_pms": state.num_pms, "num_vms": state.num_vms},
        "cpu_count": (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        ),
        "results": results,
    }
    if output is not None:
        output.write_text(json.dumps(payload, indent=2))
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for CI smoke runs")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_perf_hotpaths.json",
    )
    args = parser.parse_args()
    payload = run(smoke=args.smoke, output=args.output)
    for name, entry in payload["results"].items():
        if "seconds" in entry:
            line = f"{name:28s} {entry['seconds'] * 1e3:9.2f} ms"
        else:
            line = (
                f"{name:28s} legacy {entry['legacy_s'] * 1e3:9.2f} ms   "
                f"vectorized {entry['vectorized_s'] * 1e3:9.2f} ms   "
                f"speedup {entry['speedup']:6.1f}x"
            )
        if "workers" in entry:
            detail = "  ".join(
                f"w{workers}={seconds * 1e3:.0f}ms"
                for workers, seconds in entry["workers"].items()
            )
            line += f"   [{detail}]"
        print(line)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
