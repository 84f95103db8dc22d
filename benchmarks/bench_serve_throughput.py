"""Serving throughput benchmark: sequential dispatch vs micro-batched RL.

Replays a fixed set of greedy RL :class:`PlanRequest`\\ s through the
:class:`ReschedulingService` twice —

* **sequential**: ``max_batch_size=1``, one full policy rollout per
  request (the pre-serve inference path), and
* **micro-batched**: requests fused into ``plan_batch`` groups of
  ``--batch-size``, one stacked extractor forward per step for the whole
  group (the PR 1/2 hot path) —

and reports requests/sec plus p50/p99 per-request latency for both, writing
``BENCH_serve_throughput.json``.  The original (PR 3) acceptance bar was ≥2×
requests/sec for micro-batched dispatch at batch size ≥ 8, measured against
the then-uncached sequential baseline; the PR-5 step cache roughly tripled
the *sequential* baseline too (both modes use it), so the watched bar is now
≥1.5× relative — regressions in either absolute throughput column are what
to look for.

Run:  PYTHONPATH=src python benchmarks/bench_serve_throughput.py [--smoke] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from paper import default_agent_config

from repro.cluster import ConstraintConfig
from repro.core import VMR2LAgent
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.serve import (
    PlanRequest,
    PlannerRegistry,
    ReschedulingService,
    RLPlanner,
    ServiceConfig,
)


def _requests(num_requests: int, num_pms: int, migration_limit: int, seed: int = 0):
    """Greedy RL requests modeling production traffic: successive snapshots of
    ONE cluster (same PM/VM population, shifting placements).  Same-size
    snapshots let concurrent requests share a stacked extractor forward — the
    case micro-batching targets."""
    spec = ClusterSpec(
        name="serve-bench",
        num_pms=num_pms,
        target_utilization=0.75,
        best_fit_fraction=0.3,
    )
    base = SnapshotGenerator(spec, seed=seed).generate()
    rng = np.random.default_rng(seed + 1)
    requests = []
    for _ in range(num_requests):
        state = base.copy()
        # Drift the placement: a handful of random feasible migrations.
        for _ in range(4):
            vm_ids = state.placed_vm_ids()
            vm_id = int(vm_ids[rng.integers(len(vm_ids))])
            destinations = state.feasible_destination_pms(vm_id)
            if destinations:
                state.migrate_vm(vm_id, int(destinations[rng.integers(len(destinations))]))
        requests.append(
            PlanRequest.from_state(
                state, planner="vmr2l", migration_limit=migration_limit
            )
        )
    return requests


def _registry(migration_limit: int = 8, seed: int = 0) -> PlannerRegistry:
    """An RL planner with the harness-standard compact model configuration."""
    agent = VMR2LAgent(
        default_agent_config(migration_limit),
        constraint_config=ConstraintConfig(migration_limit=migration_limit),
        seed=seed,
    )
    registry = PlannerRegistry()
    registry.register("vmr2l", RLPlanner(agent), aliases=("rl",))
    return registry


def _run_mode(service, requests, chunk: int, repeats: int = 3) -> dict:
    """Replay ``requests`` in chunks, best-of-``repeats`` (the harness's
    noise-robust estimator — the minimum wall time is a lower bound that
    noisy-neighbor stalls on shared runners cannot deflate)."""
    best_elapsed, best_replies = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        replies = []
        for offset in range(0, len(requests), chunk):
            group = requests[offset:offset + chunk]
            replies.extend(service.handle_many(group))
        elapsed = time.perf_counter() - start
        if elapsed < best_elapsed:
            best_elapsed, best_replies = elapsed, replies
    latencies = []
    for reply in best_replies:
        assert reply.ok, getattr(reply, "message", reply)
        latencies.append(reply.metrics["latency_ms"])
    latencies = np.asarray(latencies)
    return {
        "wall_seconds": best_elapsed,
        "requests_per_s": len(requests) / best_elapsed,
        "latency_ms_p50": float(np.percentile(latencies, 50)),
        "latency_ms_p99": float(np.percentile(latencies, 99)),
        "mean_batch_size": float(np.mean([r.metrics["batch_size"] for r in best_replies])),
        "num_migrations_total": int(sum(r.num_migrations for r in best_replies)),
    }


def run(
    smoke: bool = False,
    output: Path | None = None,
    batch_size: int = 8,
    num_requests: int | None = None,
) -> dict:
    num_pms = 8
    migration_limit = 4 if smoke else 8
    if num_requests is None:
        num_requests = 2 * batch_size if smoke else 3 * batch_size
    requests = _requests(num_requests, num_pms, migration_limit)
    registry = _registry(migration_limit)

    sequential_service = ReschedulingService(registry, ServiceConfig(max_batch_size=1))
    batched_service = ReschedulingService(
        registry, ServiceConfig(max_batch_size=batch_size)
    )

    # Warm-up (first forward pays one-off buffer allocations).
    sequential_service.handle(requests[0])
    batched_service.handle_many(requests[:2])

    sequential = _run_mode(sequential_service, requests, chunk=1)
    # One handle_many over the whole set: the service streams it through
    # `batch_size` concurrent episode slots (continuous micro-batching).
    batched = _run_mode(batched_service, requests, chunk=len(requests))

    # Identical greedy plans are part of the contract, not just speed.
    solo = sequential_service.handle(requests[0])
    fused = batched_service.handle_many(requests[:batch_size])[0]
    assert solo.migrations == fused.migrations, "micro-batched plan diverged from sequential"

    speedup = batched["requests_per_s"] / sequential["requests_per_s"]
    payload = {
        "benchmark": "serve_throughput",
        "config": {
            "smoke": smoke,
            "num_pms": num_pms,
            "migration_limit": migration_limit,
            "num_requests": num_requests,
            "batch_size": batch_size,
        },
        "sequential": sequential,
        "micro_batched": batched,
        "speedup_requests_per_s": speedup,
        "plans_identical": True,
    }
    print(json.dumps(payload, indent=2))
    if output is not None:
        output.write_text(json.dumps(payload, indent=2))
        print(f"wrote {output}")
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny fast configuration for CI")
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--num-requests", type=int, default=None)
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_serve_throughput.json")
    args = parser.parse_args()
    payload = run(
        smoke=args.smoke,
        output=args.output,
        batch_size=args.batch_size,
        num_requests=args.num_requests,
    )
    if payload["speedup_requests_per_s"] < 1.5:
        print(f"WARNING: micro-batching speedup {payload['speedup_requests_per_s']:.2f}x "
              "is below the 1.5x relative bar (see module docstring; the "
              "step cache lifted the sequential baseline in PR 5)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
