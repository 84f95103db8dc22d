"""The benchmark's contract in code: sizes, workloads and metric names.

``BENCHMARK.json`` at the repository root names the same workloads and
metrics; ``test_e2e_smoke.py`` fails when the two disagree.  Nothing here
imports the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

#: Trace and result files of local runs go here; nothing in it is committed.
OUT_DIR = Path(__file__).resolve().parent / "_out"


@dataclass(frozen=True)
class Size:
    """A cluster size: every seed yields exactly ``num_vms`` VMs on ``num_pms``
    PMs, so the work per request does not depend on the seed."""

    name: str
    num_pms: int
    num_vms: int
    #: Distinct requests generated per run; loops cycle when they need more.
    pool: int


SIZES: Dict[str, Size] = {
    "small": Size("small", num_pms=8, num_vms=50, pool=256),
    "medium": Size("medium", num_pms=40, num_vms=280, pool=32),
    "large": Size("large", num_pms=120, num_vms=900, pool=16),
}

#: ``--smoke`` shrinks every size so the self-test finishes in seconds.
SMOKE_SIZES: Dict[str, Size] = {
    "small": Size("small", num_pms=6, num_vms=30, pool=8),
    "medium": Size("medium", num_pms=8, num_vms=50, pool=4),
    "large": Size("large", num_pms=10, num_vms=70, pool=4),
}


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    planner: str
    migration_limit: int
    #: System under test: ``http`` (client → server → fleet → replica
    #: service), ``fleet``, ``service`` (in process) or ``train``.
    stack: str
    #: Load shape: ``seq`` (closed, 1 outstanding), ``window`` (closed,
    #: ``window`` outstanding from one thread), ``open`` (fixed arrival
    #: schedule at ``rate`` requests/s) or ``train``.
    loop: str
    #: An operation counts towards ``quality.within_limit_ratio`` only when it
    #: returned ok within this many milliseconds.
    limit_ms: float
    why: str
    window: int = 1
    rate: float = 0.0


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "small_ha_http_seq", "small", "ha", 1, "http", "seq", 50.0,
        "HA with one migration plans in ~1 ms, so HTTP, fleet pipe, schemas and snapshot "
        "decoding are most of the latency; a policy change must show nothing here",
    ),
    Workload(
        "small_rl_fleet_open", "small", "vmr2l", 8, "fleet", "open", 150.0,
        "open loop at 12 req/s, under half of capacity: latency is the sum of the "
        "stages with little queueing, so queue and batch wait and the pipe hop show",
        rate=12.0,
    ),
    Workload(
        "small_rl_service_win8", "small", "vmr2l", 8, "service", "window", 400.0,
        "8 outstanding from one thread saturate micro-batching: a change that trades "
        "batched throughput for light-load latency loses here",
        window=8,
    ),
    Workload(
        "medium_rl_service_seq", "medium", "vmr2l", 25, "service", "seq", 1000.0,
        "policy-dominated at the size where Python dispatch, featurize, masks and "
        "StepCache cost as much as BLAS; transport does no work",
    ),
    Workload(
        "large_rl_service_seq", "large", "vmr2l", 10, "service", "seq", 5000.0,
        "the O(V^2) VM-VM attention dominates: chunked or f32 attention shows here, "
        "a dispatch-overhead win should show little",
    ),
    Workload(
        "train_ppo_small", "small", "vmr2l", 8, "train", "train", 10_000.0,
        "grad-tracking forward, backward and Adam over the same nn/core code: an "
        "inference-only speed-up that costs the training path shows here",
    ),
)

WORKLOADS_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: PPO shape of ``train_ppo_small``: one operation is one PPO iteration
#: (``rollout_steps`` env steps over ``num_envs`` envs, then the update).
TRAIN_ROLLOUT_STEPS = 64
TRAIN_MINIBATCH = 32
TRAIN_EPOCHS = 2
TRAIN_NUM_ENVS = 4
TRAIN_NUM_STATES = 8
SMOKE_TRAIN_ROLLOUT_STEPS = 16
SMOKE_TRAIN_MINIBATCH = 8

#: (name, unit, better, bound).  One operation is one plan request, or one
#: PPO iteration on ``train_ppo_small``.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better).  Printed by the traced run (``--trace 1``).
PER_LAYER = (
    ("http.self_ms", "ms", "lower"),
    ("http.request_bytes", "bytes", "lower"),
    ("http.response_bytes", "bytes", "lower"),
    ("fleet.self_ms", "ms", "lower"),
    ("fleet.start_s", "s", "lower"),
    ("fleet.retried", "count", "lower"),
    ("fleet.shed", "count", "lower"),
    ("fleet.replica_failures", "count", "lower"),
    ("fleet.errors", "count", "lower"),
    ("schemas.encode_request_ms", "ms", "lower"),
    ("schemas.decode_request_ms", "ms", "lower"),
    ("schemas.encode_response_ms", "ms", "lower"),
    ("schemas.decode_response_ms", "ms", "lower"),
    ("service.queue_ms_p50", "ms", "lower"),
    ("service.batch_size_mean", "count", "higher"),
    ("service.inference_ms_p50", "ms", "lower"),
    ("service.overhead_ms_p50", "ms", "lower"),
    ("service.seq_latency_ms", "ms", "lower"),
    ("service.shed", "count", "lower"),
    ("service.errors", "count", "lower"),
    ("service.plan_match_ratio", "ratio", "higher"),
    ("cluster.from_dict_ms", "ms", "lower"),
    ("cluster.copy_us", "us", "lower"),
    ("cluster.movable_vm_mask_ms", "ms", "lower"),
    ("cluster.destination_mask_us", "us", "lower"),
    ("cluster.apply_plan_ms", "ms", "lower"),
    ("env.observation_build_ms", "ms", "lower"),
    ("env.step_ms", "ms", "lower"),
    ("core.plan_steps", "count", "lower"),
    ("core.plan_ms_per_step", "ms", "lower"),
    ("core.featurize_ms", "ms", "lower"),
    ("core.extractor_forward_ms", "ms", "lower"),
    ("core.act_fresh_ms", "ms", "lower"),
    ("core.act_cached_ms", "ms", "lower"),
    ("core.step_cache_hit_ratio", "ratio", "higher"),
    ("nn.attention_vv_ms", "ms", "lower"),
    ("ppo.rollout_s_per_iter", "s", "lower"),
    ("ppo.update_s_per_iter", "s", "lower"),
    ("ppo.update_share", "ratio", "lower"),
    ("ppo.env_steps_per_s", "1/s", "higher"),
    ("baselines.vbpp_plan_ms", "ms", "lower"),
    ("baselines.ha_plan_ms", "ms", "lower"),
    ("datasets.generate_s", "s", "lower"),
    ("gen.late_p99_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_ratio", "ratio", "lower"),
    ("quality.op_p90_ms", "ms", "lower"),
    ("quality.fr_after", "ratio", "lower"),
    ("quality.within_limit_ratio", "ratio", "higher"),
    ("quality.fail_ratio", "ratio", "lower"),
)

#: One BLAS thread: the runner has 2 cores, and the load generator and the
#: replica process each need one.
BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: A per-layer probe whose entry point is missing reports this value and is
#: listed under ``probes_skipped``; it never fails the run.
SKIPPED = -1.0

#: An open-loop pass whose generator ran later than this (p99) is
#: ``unresolved``.  On this runner the p99 sits near 4 ms whatever the load:
#: a wake-up that finds its core busy waits for the next scheduler tick.
LATE_LIMIT_MS = 8.0
