"""Living-cluster simulator smoke check.

Runs a short seeded simulation twice and asserts the two reports are
bit-identical (the determinism contract of ``repro simulate``), replays the
same run from a recorded JSONL trace, and verifies StepCache-on equals
StepCache-off for the RL planner over the same event stream.  Exits non-zero
on any violation — CI runs this as the sim-smoke job.

Run:  PYTHONPATH=src python benchmarks/sim_smoke.py
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.serve import ReschedulingService, build_default_registry
from repro.sim import (
    ChurnSpec,
    LivingCluster,
    OnlineRescheduler,
    SimulationConfig,
    SyntheticTrace,
    load_trace,
    save_trace,
)
from repro.testing import FreshRLPlanner

HOUR_S = 3600.0


def run_once(events, planner, num_pms, seed, reference=None):
    """One seeded simulation; ``reference`` replaces the cached RL planner."""
    spec = ClusterSpec(name="sim-smoke", num_pms=num_pms,
                       target_utilization=0.6, best_fit_fraction=0.3)
    state = SnapshotGenerator(spec, seed=seed).generate()
    cluster = LivingCluster(state, list(events), seed=seed + 1)
    registry = build_default_registry(include_slow=False, seed=0)
    if reference is not None:
        registry.replace("vmr2l", reference)
    service = ReschedulingService(registry)
    config = SimulationConfig(
        planner=planner, migration_limit=4, replan_every_s=HOUR_S,
        plan_delay_s=60.0, horizon_s=6 * HOUR_S, seed=seed,
    )
    report = OnlineRescheduler(cluster, service.handle, config).run()
    cluster.state.arrays().assert_in_sync(cluster.state)
    return report


def canonical(report):
    return json.dumps(report.deterministic_dict(), sort_keys=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-pms", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    churn = ChurnSpec(resizes_per_hour=2.0, drains_per_day=6.0,
                      failures_per_day=3.0, adds_per_day=9.0)
    events = SyntheticTrace(churn, seed=args.seed).generate(6 * HOUR_S)
    print(f"trace: {len(events)} events over 6 simulated hours")
    checks = []

    first = run_once(events, "ha", args.num_pms, args.seed)
    second = run_once(events, "ha", args.num_pms, args.seed)
    checks.append(("determinism (same seed, same report)",
                   canonical(first) == canonical(second)))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        save_trace(events, path, meta={"seed": args.seed})
        _, replayed_events = load_trace(path)
        replayed = run_once(replayed_events, "ha", args.num_pms, args.seed)
        checks.append(("record/replay (JSONL round trip)",
                       canonical(first) == canonical(replayed)))

    cached = run_once(events, "vmr2l", args.num_pms, args.seed)
    reference = FreshRLPlanner(build_default_registry(include_slow=False, seed=0)
                               .get("vmr2l").agent)
    fresh = run_once(events, "vmr2l", args.num_pms, args.seed, reference=reference)
    checks.append(("StepCache parity (cached == fresh recompute)",
                   reference.calls > 0 and canonical(cached) == canonical(fresh)))
    checks.append(("rounds completed", len(first.rounds) == 6
                   and first.failed_rounds == 0))

    failures = 0
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    stats = first.engine_stats
    print(f"engine: {stats['arrivals']} arrivals, {stats['exits']} exits, "
          f"{stats['resizes']} resizes, "
          f"{stats['drains'] + stats['failures'] + stats['adds']} PM events")
    if failures:
        print(f"{failures} simulator smoke check(s) failed", file=sys.stderr)
        return 1
    print("living-cluster simulator smoke checks all passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
