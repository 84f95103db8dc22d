"""Per-layer probes: timed calls into each layer's public functions.

Every probe runs at the traced workload's cluster size (the PPO and
baseline probes always at the small size) and records a span per call.
A probe whose entry point is missing — a later PR may delete it — reports
``spec.SKIPPED`` for its metrics and is listed under ``probes_skipped``;
it never fails the run.  Nothing slated for deletion in ROADMAP
(``*_reference``, ``forward_array``, ``act_batch``, ``BASELINE_FACTORIES``,
``PPOConfig.batched_updates``/``inference_rollouts``) is imported.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import spec
from .spans import Tracer


@dataclass
class ProbeContext:
    tracer: Tracer
    workload: spec.Workload
    size: spec.Size
    seed: int
    smoke: bool
    base: object  # ClusterState of the workload's size
    requests: Sequence  # PlanRequest pool
    replies: Sequence  # PlanResponse per leading request (the reference plans)
    small_states: Sequence  # ClusterStates of the small size, for PPO and baselines

    @property
    def repeats(self) -> int:
        """Calls per probe: fewer where one call is slow."""
        if self.smoke:
            return 2
        return {"small": 30, "medium": 10, "large": 3}[self.size.name]


def timed(ctx: ProbeContext, name: str, call: Callable, repeats: int = 0) -> float:
    """Median seconds of ``call()`` over ``repeats`` calls, one span each."""
    durations = []
    for _ in range(repeats or ctx.repeats):
        started = time.perf_counter()
        with ctx.tracer.span(name):
            call()
        durations.append(time.perf_counter() - started)
    return median(durations)


def probe_datasets(ctx: ProbeContext) -> Dict[str, float]:
    from .inputs import make_cluster

    return {
        "datasets.generate_s": timed(
            ctx, "datasets.generate", lambda: make_cluster(ctx.size, ctx.seed), repeats=1
        )
    }


def probe_schemas(ctx: ProbeContext) -> Dict[str, float]:
    from repro.serve import PlanRequest, response_from_dict

    request, reply = ctx.requests[0], ctx.replies[0]
    request_text, reply_text = request.to_json(), reply.to_json()
    return {
        "schemas.encode_request_ms": 1e3 * timed(ctx, "schemas.encode_request", request.to_json),
        "schemas.decode_request_ms": 1e3 * timed(
            ctx, "schemas.decode_request", lambda: PlanRequest.from_json(request_text)
        ),
        "schemas.encode_response_ms": 1e3 * timed(ctx, "schemas.encode_response", reply.to_json),
        "schemas.decode_response_ms": 1e3 * timed(
            ctx, "schemas.decode_response", lambda: response_from_dict(json.loads(reply_text))
        ),
    }


def probe_cluster(ctx: ProbeContext) -> Dict[str, float]:
    from repro.cluster import ClusterState, ConstraintChecker, ConstraintConfig, apply_plan

    request, reply = ctx.requests[0], ctx.replies[0]
    state = ClusterState.from_dict(request.snapshot)
    state.arrays()  # the mask probes time the masks, not the SoA build
    config = ConstraintConfig(migration_limit=ctx.workload.migration_limit)
    vm_ids = iter(state.sorted_vm_ids() * ctx.repeats)
    checker = ConstraintChecker(config)
    plan = reply.plan()
    return {
        "cluster.from_dict_ms": 1e3 * timed(
            ctx, "cluster.from_dict", lambda: ClusterState.from_dict(request.snapshot)
        ),
        "cluster.copy_us": 1e6 * timed(ctx, "cluster.copy", state.copy),
        # A new checker per call: its feasibility matrix is memoized per state.
        "cluster.movable_vm_mask_ms": 1e3 * timed(
            ctx, "cluster.movable_vm_mask",
            lambda: ConstraintChecker(config).movable_vm_mask(state),
        ),
        "cluster.destination_mask_us": 1e6 * timed(
            ctx, "cluster.destination_mask",
            lambda: checker.destination_mask(state, next(vm_ids)),
        ),
        "cluster.apply_plan_ms": 1e3 * timed(
            ctx, "cluster.apply_plan", lambda: apply_plan(state, plan)[0].fragment_rate()
        ),
    }


def probe_observation(ctx: ProbeContext) -> Dict[str, float]:
    from repro.cluster import ConstraintChecker, ConstraintConfig
    from repro.env import ObservationBuilder

    config = ConstraintConfig(migration_limit=ctx.workload.migration_limit)
    limit = ctx.workload.migration_limit
    return {
        "env.observation_build_ms": 1e3 * timed(
            ctx, "env.observation_build",
            lambda: ObservationBuilder(ConstraintChecker(config)).build(ctx.base, limit),
        )
    }


def probe_policy(ctx: ProbeContext) -> Dict[str, float]:
    """One greedy episode per state through ``TwoStagePolicy.act`` with a
    ``StepCache``, stepping the env between decisions: the stages of one
    plan as they can be seen from outside the planner."""
    from repro.cluster import ClusterState, ConstraintConfig
    from repro.core import VMR2LAgent, build_feature_batch
    from repro.core.step_cache import StepCache
    from repro.env import VMRescheduleEnv
    from repro.nn import no_grad

    from .stacks import AGENT_SEED

    tracer = ctx.tracer
    policy = VMR2LAgent(seed=AGENT_SEED).policy
    # A baseline workload's limit can be too short to reach a cached step.
    limit = ctx.workload.migration_limit if ctx.workload.planner == "vmr2l" else 8
    config = ConstraintConfig(migration_limit=limit)
    episodes = 1 if ctx.size.name == "large" or ctx.smoke else 4
    act_cached: List[float] = []
    env_step: List[float] = []
    hits = misses = 0
    rng = np.random.default_rng(0)
    with no_grad():
        for request in ctx.requests[:episodes]:
            env = VMRescheduleEnv(ClusterState.from_dict(request.snapshot), config)
            observation = env.reset()
            cache = StepCache()
            with tracer.span("episode", request.request_id):
                done = not observation.vm_mask.any()
                first = True
                while not done:
                    started = time.perf_counter()
                    with tracer.span("core.act_cached"):
                        output = policy.act(
                            observation, env.pm_action_mask, rng, greedy=True,
                            compute_stats=False, step_cache=cache,
                        )
                    middle = time.perf_counter()
                    with tracer.span("env.step"):
                        observation, _, done, _ = env.step(output.action)
                    if not first:  # the first decision of an episode is a cache miss
                        act_cached.append(middle - started)
                    env_step.append(time.perf_counter() - middle)
                    first = False
            stats = cache.stats()
            hits += stats["hits"]
            misses += stats["misses"]

        env = VMRescheduleEnv(ctx.base, config)
        observation = env.reset()
        metrics = {
            "core.featurize_ms": 1e3 * timed(
                ctx, "core.featurize", lambda: build_feature_batch(observation)
            ),
            "core.act_fresh_ms": 1e3 * timed(
                ctx, "core.act_fresh",
                lambda: policy.act(
                    observation, env.pm_action_mask, rng, greedy=True, compute_stats=False
                ),
            ),
        }
        forward = []
        for _ in range(ctx.repeats):
            batch = build_feature_batch(observation)
            started = time.perf_counter()
            with tracer.span("core.extractor_forward"):
                policy.extractor(batch)
            forward.append(time.perf_counter() - started)
    metrics.update({
        "core.extractor_forward_ms": 1e3 * median(forward),
        "core.act_cached_ms": 1e3 * median(act_cached or env_step),
        "core.step_cache_hit_ratio": hits / max(hits + misses, 1),
        "env.step_ms": 1e3 * median(env_step),
    })
    return metrics


def probe_attention(ctx: ProbeContext) -> Dict[str, float]:
    from repro.core import ModelConfig
    from repro.nn import MultiHeadAttention, Tensor, no_grad

    model = ModelConfig()
    rng = np.random.default_rng(0)
    attention = MultiHeadAttention(model.embed_dim, model.num_heads, rng=rng)
    x = Tensor(rng.normal(size=(ctx.size.num_vms, model.embed_dim)))
    with no_grad():
        return {
            "nn.attention_vv_ms": 1e3 * timed(ctx, "nn.attention_vv", lambda: attention(x, x, x))
        }


def probe_baselines(ctx: ProbeContext) -> Dict[str, float]:
    from repro.baselines import AlphaVBPP, FilteringHeuristic

    state = ctx.small_states[0]
    repeats = 2 if ctx.smoke else 30
    return {
        "baselines.vbpp_plan_ms": 1e3 * timed(
            ctx, "baselines.vbpp_plan", lambda: AlphaVBPP().compute_plan(state, 8), repeats
        ),
        "baselines.ha_plan_ms": 1e3 * timed(
            ctx, "baselines.ha_plan", lambda: FilteringHeuristic().compute_plan(state, 8), repeats
        ),
    }


class _TrainEnvFactory:
    """Builds one training env sampling episodes from ``states``."""

    def __init__(self, states, config, sampler_seed: int) -> None:
        self.states, self.config, self.sampler_seed = states, config, sampler_seed

    def __call__(self):
        from repro.env import VMRescheduleEnv

        rng = np.random.default_rng(self.sampler_seed)
        return VMRescheduleEnv(
            state_sampler=lambda: self.states[rng.integers(len(self.states))],
            constraint_config=self.config,
        )


def probe_ppo(ctx: ProbeContext) -> Dict[str, float]:
    """One PPO iteration of ``train_ppo_small``'s shape, split into its
    rollout and its update."""
    from repro.core import PPOTrainer
    from repro.env import SyncVectorEnv

    from .harness import train_agent, train_shape

    workload = spec.WORKLOADS_BY_NAME["train_ppo_small"]
    agent = train_agent(workload, ctx.smoke)
    factories = [
        _TrainEnvFactory(ctx.small_states, agent.constraint_config, index + 1)
        for index in range(spec.TRAIN_NUM_ENVS)
    ]
    env = SyncVectorEnv(factories)
    try:
        trainer = PPOTrainer(agent.policy, env, agent.config.ppo)
        trainer.update(trainer.collect_rollout())  # the first iteration allocates
        started = time.perf_counter()
        with ctx.tracer.span("ppo.collect_rollout"):
            buffer = trainer.collect_rollout()
        middle = time.perf_counter()
        with ctx.tracer.span("ppo.update"):
            trainer.update(buffer)
        ended = time.perf_counter()
    finally:
        env.close()
    rollout_s, update_s = middle - started, ended - middle
    return {
        "ppo.rollout_s_per_iter": rollout_s,
        "ppo.update_s_per_iter": update_s,
        "ppo.update_share": update_s / (rollout_s + update_s),
        "ppo.env_steps_per_s": train_shape(ctx.smoke)[0] / (rollout_s + update_s),
    }


def _named(prefix: str) -> Tuple[str, ...]:
    return tuple(name for name, _, _ in spec.PER_LAYER if name.startswith(prefix))


#: Each probe with the metrics it owns, so a skipped probe can report them.
PROBES: Tuple[Tuple[Callable, Tuple[str, ...]], ...] = (
    (probe_datasets, ("datasets.generate_s",)),
    (probe_schemas, _named("schemas.")),
    (probe_cluster, _named("cluster.")),
    (probe_observation, ("env.observation_build_ms",)),
    (probe_policy, (
        "core.featurize_ms", "core.act_fresh_ms", "core.extractor_forward_ms",
        "core.act_cached_ms", "core.step_cache_hit_ratio", "env.step_ms",
    )),
    (probe_attention, ("nn.attention_vv_ms",)),
    (probe_baselines, _named("baselines.")),
    (probe_ppo, _named("ppo.")),
)


def run_probes(ctx: ProbeContext) -> Tuple[Dict[str, float], List[str]]:
    metrics: Dict[str, float] = {}
    skipped: List[str] = []
    for probe, names in PROBES:
        try:
            with ctx.tracer.span(probe.__name__):
                metrics.update(probe(ctx))
        except (ImportError, AttributeError, TypeError) as exc:
            # The entry point moved or changed its signature: report, go on.
            skipped.append(f"{probe.__name__}: {type(exc).__name__}: {exc}")
            metrics.update({name: spec.SKIPPED for name in names})
    return metrics, skipped
