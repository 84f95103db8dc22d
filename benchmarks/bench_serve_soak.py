"""Fault-injection soak: the serving stack under sustained chaos, with hard
invariants checked while latency/shed/restart numbers are recorded.

Segments, all driven by the deterministic harness in
:mod:`repro.testing.faults`:

* **serve** — concurrent client threads push greedy RL requests (a fraction
  deadline-constrained) through the queued service while the planner raises
  on a fixed cadence and the admission bound sheds bursts.  Every request
  must resolve (response, partial plan, or stable error) — no timeouts, no
  hangs — and the segment records p50/p99 wall latency, shed rate, partial
  rate and per-code error counts.
* **deadline** — every deadline-constrained reply must have arrived within a
  bounded multiple of its budget.

Results are merged into ``BENCH_serve_throughput.json`` under the ``"soak"``
key, next to the throughput benchmark's numbers.

Run:  PYTHONPATH=src python benchmarks/bench_serve_soak.py [--smoke] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from pathlib import Path

import numpy as np

from common import default_agent_config

from repro.cluster import ConstraintConfig
from repro.core import VMR2LAgent
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.serve import (
    BaselinePlanner,
    DefaultRegistryFactory,
    FleetConfig,
    PlanRequest,
    PlannerRegistry,
    ReplicaFleet,
    ReschedulingService,
    RetryPolicy,
    RLPlanner,
    ServiceConfig,
)
from repro.baselines import FilteringHeuristic
from repro.testing import FaultyPlanner, kill_replica


def _requests(num_requests: int, num_pms: int, migration_limit: int,
              deadline_fraction: float, deadline_ms: float, seed: int = 0):
    spec = ClusterSpec(name="soak", num_pms=num_pms,
                       target_utilization=0.75, best_fit_fraction=0.3)
    base = SnapshotGenerator(spec, seed=seed).generate()
    rng = np.random.default_rng(seed + 1)
    requests = []
    for index in range(num_requests):
        state = base.copy()
        for _ in range(3):
            vm_ids = state.placed_vm_ids()
            vm_id = int(vm_ids[rng.integers(len(vm_ids))])
            destinations = state.feasible_destination_pms(vm_id)
            if destinations:
                state.migrate_vm(vm_id, int(destinations[rng.integers(len(destinations))]))
        constrained = rng.random() < deadline_fraction
        requests.append(
            PlanRequest.from_state(
                state,
                planner="vmr2l",
                migration_limit=migration_limit,
                deadline_ms=deadline_ms if constrained else None,
            )
        )
    return requests


def _chaos_registry(migration_limit: int, fault_every: int, seed: int = 0) -> PlannerRegistry:
    """RL planner that raises on every ``fault_every``-th call, plus HA."""
    agent = VMR2LAgent(
        default_agent_config(migration_limit),
        constraint_config=ConstraintConfig(migration_limit=migration_limit),
        seed=seed,
    )
    fail_calls = range(fault_every - 1, 10_000, fault_every)
    registry = PlannerRegistry()
    registry.register("vmr2l", FaultyPlanner(RLPlanner(agent), fail_calls=fail_calls),
                      aliases=("rl",))
    registry.register("ha", BaselinePlanner("HA", FilteringHeuristic, "fallback baseline"))
    return registry


def _serve_segment(requests, registry, max_queue_depth: int, client_threads: int) -> dict:
    service = ReschedulingService(
        registry,
        ServiceConfig(
            max_batch_size=4,
            max_wait_ms=1.0,
            max_queue_depth=max_queue_depth,
            deadline_policy="partial",
        ),
    )
    outcomes = [None] * len(requests)
    latencies = [None] * len(requests)

    def client(indices):
        for index in indices:
            start = time.perf_counter()
            try:
                outcomes[index] = service.plan(requests[index], timeout=120.0)
            except Exception as exc:  # a hang/timeout here fails the soak
                outcomes[index] = exc
            latencies[index] = (time.perf_counter() - start) * 1e3

    service.start()
    try:
        threads = [
            threading.Thread(target=client, args=(range(t, len(requests), client_threads),))
            for t in range(client_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        assert not any(thread.is_alive() for thread in threads), "client threads hung"
    finally:
        service.stop()

    unresolved = [o for o in outcomes if o is None or isinstance(o, Exception)]
    assert not unresolved, f"{len(unresolved)} requests never got a reply: {unresolved[:3]}"
    oks = [o for o in outcomes if o.ok]
    errors = [o for o in outcomes if not o.ok]
    error_codes: dict = {}
    for error in errors:
        error_codes[error.code] = error_codes.get(error.code, 0) + 1
    stats = service.stats()
    latencies_ms = np.asarray([l for l in latencies if l is not None])
    deadline_outcomes = [
        (request, outcome, latency)
        for request, outcome, latency in zip(requests, outcomes, latencies)
        if request.deadline_ms is not None
    ]
    return {
        "num_requests": len(requests),
        "num_ok": len(oks),
        "num_partial": sum(1 for o in oks if o.partial),
        "error_codes": error_codes,
        "shed": stats.get("shed", 0),
        "shed_rate": stats.get("shed", 0) / max(len(requests), 1),
        "latency_ms_p50": float(np.percentile(latencies_ms, 50)),
        "latency_ms_p99": float(np.percentile(latencies_ms, 99)),
        "_deadline_outcomes": deadline_outcomes,  # stripped before writing
    }


def _fleet_config(num_replicas: int) -> FleetConfig:
    return FleetConfig(
        num_replicas=num_replicas,
        start_method="fork",
        heartbeat_interval_s=0.05,
        supervise_interval_s=0.02,
        restart_backoff_s=0.05,
        retry=RetryPolicy(max_retries=3, backoff_s=0.05),
    )


def _fleet_saturation_sweep(requests, replica_counts) -> list:
    """Offered-load saturation: all requests submitted at once per fleet size.

    Each replica runs a full service over its own copy of the policy, so
    throughput should scale with replicas until the submission path or the
    host's cores saturate; p50/p99 come from the fleet's own per-request
    latency window (submit -> terminal reply)."""
    sweep = []
    for num_replicas in replica_counts:
        fleet = ReplicaFleet(DefaultRegistryFactory(), config=_fleet_config(num_replicas))
        fleet.start(timeout=120.0)
        try:
            start = time.perf_counter()
            futures = [fleet.submit(request) for request in requests]
            replies = [future.result(timeout=300.0) for future in futures]
            wall = time.perf_counter() - start
            assert all(reply is not None for reply in replies)
            num_ok = sum(1 for reply in replies if reply.ok)
            latency = fleet.latency_percentiles()
            stats = fleet.stats()
            sweep.append({
                "replicas": num_replicas,
                "num_requests": len(requests),
                "num_ok": num_ok,
                "wall_seconds": wall,
                "requests_per_s": len(requests) / wall,
                "latency_ms_p50": latency["p50_ms"],
                "latency_ms_p99": latency["p99_ms"],
                "shed": stats["shed"],
                "retried": stats["retried"],
            })
        finally:
            fleet.stop()
    return sweep


def _fleet_kill_soak(requests) -> dict:
    """Stream requests through a 2-replica fleet, SIGKILL one mid-stream.

    The invariant is the chaos suite's: every submitted request resolves to
    exactly one terminal reply, and with a survivor available the retry path
    should make all of them successes."""
    fleet = ReplicaFleet(DefaultRegistryFactory(), config=_fleet_config(2))
    fleet.start(timeout=120.0)
    try:
        futures = []
        kill_at = len(requests) // 3
        killed_pid = None
        for index, request in enumerate(requests):
            futures.append(fleet.submit(request))
            if index == kill_at:
                killed_pid = kill_replica(fleet, 0)
        replies = [future.result(timeout=300.0) for future in futures]
        unresolved = [r for r in replies if r is None]
        assert not unresolved, "kill soak dropped a reply"
        stats = fleet.stats()
        return {
            "num_requests": len(requests),
            "num_ok": sum(1 for reply in replies if reply.ok),
            "killed_pid": killed_pid,
            "retried": stats["retried"],
            "replica_failures": stats["replica_failures"],
            "restarts": stats["restarts"],
            "errors": stats["errors"],
        }
    finally:
        fleet.stop()


def _fleet_segment(smoke: bool, migration_limit: int) -> dict:
    num_requests = 12 if smoke else 48
    replica_counts = (1, 2) if smoke else (1, 2, 4)
    requests = _requests(
        num_requests, num_pms=8, migration_limit=migration_limit,
        deadline_fraction=0.0, deadline_ms=0.0, seed=7,
    )
    sweep = _fleet_saturation_sweep(requests, replica_counts)
    kill_soak = _fleet_kill_soak(requests)
    return {
        "saturation_sweep": sweep,
        "kill_soak": kill_soak,
    }


def run(smoke: bool = False, output: Path | None = None) -> dict:
    num_requests = 24 if smoke else 96
    migration_limit = 4 if smoke else 8
    deadline_ms = 40.0
    registry = _chaos_registry(migration_limit, fault_every=7)
    requests = _requests(
        num_requests, num_pms=8, migration_limit=migration_limit,
        deadline_fraction=0.4, deadline_ms=deadline_ms,
    )

    serve = _serve_segment(requests, registry,
                           max_queue_depth=num_requests // 2, client_threads=6)
    deadline_outcomes = serve.pop("_deadline_outcomes")

    # Deadline contract: every constrained request resolved within a bounded
    # multiple of its budget (inference overshoot + evaluation + queueing).
    bound_ms = deadline_ms * 50 + 5000.0
    overdue = [latency for _, _, latency in deadline_outcomes if latency > bound_ms]
    assert not overdue, f"deadline-bounded replies overdue: {overdue}"
    deadline_summary = {
        "num_constrained": len(deadline_outcomes),
        "deadline_ms": deadline_ms,
        "bound_ms": bound_ms,
        "max_latency_ms": max((l for _, _, l in deadline_outcomes), default=0.0),
        "all_within_bound": True,
    }

    fleet = _fleet_segment(smoke, migration_limit)

    payload = {
        "benchmark": "serve_soak",
        "config": {
            "smoke": smoke,
            "num_requests": num_requests,
            "migration_limit": migration_limit,
            "planner_fault_every": 7,
        },
        "serve": serve,
        "deadline": deadline_summary,
        "fleet": fleet,
    }
    print(json.dumps(payload, indent=2))

    if output is not None:
        merged = {}
        if output.exists():
            try:
                merged = json.loads(output.read_text())
            except (ValueError, OSError):
                merged = {}
        merged["soak"] = {k: v for k, v in payload.items() if k != "fleet"}
        merged["fleet"] = fleet
        output.write_text(json.dumps(merged, indent=2))
        print(f"wrote {output}")
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny fast configuration for CI")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_serve_throughput.json")
    args = parser.parse_args()
    run(smoke=args.smoke, output=args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
