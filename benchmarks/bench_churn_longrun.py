"""Multi-day living-cluster benchmark: online rescheduling under churn.

Runs the trace-driven simulator (:mod:`repro.sim`) over a multi-day seeded
synthetic trace — diurnal arrivals/exits plus VM resizes, PM maintenance
drains, PM failures and newer-generation PM re-adds — once per planner (the
RL agent and the fast baselines) on the *identical* event stream, and
records the numbers a steady-state operator cares about:

* steady-state fragmentation (mean of the tail half of the per-round series)
  and the final fragment rate,
* plan-invalidation rate: fraction of planned migrations broken by churn
  landing between planning and application,
* drift statistics from the rolling :class:`repro.sim.DriftMonitor`,
* engine churn totals (arrivals, exits, resizes, PM lifecycle events).

Determinism: every planner sees the same initial snapshot, event stream and
engine seed, so rows are directly comparable and re-runs reproduce bit-equal
event streams (wall-clock planner latency is reported but not compared).

Results are merged into ``BENCH_churn_longrun.json`` under ``"churn_longrun"``.

Run:  PYTHONPATH=src python benchmarks/bench_churn_longrun.py [--smoke] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.serve import ReschedulingService, build_default_registry
from repro.sim import (
    ChurnSpec,
    LivingCluster,
    OnlineRescheduler,
    SimulationConfig,
    SyntheticTrace,
)

DAY_S = 86400.0

PLANNERS = ("vmr2l", "ha", "vbpp", "random")


def run_planner(planner, events, args):
    spec = ClusterSpec(name="churn-longrun", num_pms=args.num_pms,
                       target_utilization=0.65, best_fit_fraction=0.3)
    state = SnapshotGenerator(spec, seed=args.seed).generate()
    cluster = LivingCluster(state, list(events), seed=args.seed + 1)
    service = ReschedulingService(build_default_registry(include_slow=False, seed=0))
    config = SimulationConfig(
        planner=planner,
        migration_limit=args.migration_limit,
        replan_every_s=args.replan_every_s,
        plan_delay_s=args.plan_delay_s,
        horizon_s=args.horizon_days * DAY_S,
        seed=args.seed,
    )
    started = time.perf_counter()
    report = OnlineRescheduler(cluster, service.handle, config).run()
    wall_s = time.perf_counter() - started
    cluster.state.arrays().assert_in_sync(cluster.state)
    payload = report.to_dict()
    series = [record.objective_after for record in report.rounds if record.ok]
    return {
        "planner": planner,
        "num_rounds": payload["num_rounds"],
        "failed_rounds": payload["failed_rounds"],
        "steady_state_fragment_rate": payload["steady_state_objective"],
        "final_fragment_rate": payload["final_objective"],
        "mean_fragment_rate": (sum(series) / len(series)) if series else None,
        "invalidation_rate": payload["invalidation_rate"],
        "planned_migrations": sum(record.planned for record in report.rounds),
        "invalidated_migrations": sum(record.invalidated for record in report.rounds),
        "drift_events": payload["drift_events"],
        "engine_stats": payload["engine_stats"],
        "wall_seconds": wall_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fast configuration for CI")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_churn_longrun.json")
    parser.add_argument("--horizon-days", type=float, default=3.0)
    parser.add_argument("--num-pms", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--family", default="diurnal",
                        choices=("diurnal", "flash_crowd", "abnormal"))
    parser.add_argument("--migration-limit", type=int, default=6)
    parser.add_argument("--replan-every-s", type=float, default=3600.0)
    parser.add_argument("--plan-delay-s", type=float, default=120.0)
    parser.add_argument("--planners", default=",".join(PLANNERS))
    args = parser.parse_args()
    if args.smoke:
        args.horizon_days = min(args.horizon_days, 0.25)
        args.num_pms = min(args.num_pms, 6)

    churn = ChurnSpec(
        family=args.family,
        resizes_per_hour=1.0,
        drains_per_day=2.0,
        failures_per_day=1.0,
        adds_per_day=3.0,
    )
    events = SyntheticTrace(churn, seed=args.seed).generate(args.horizon_days * DAY_S)
    print(f"trace: {len(events)} events over {args.horizon_days:g} simulated day(s) "
          f"({args.family})")

    rows = []
    for planner in [p.strip() for p in args.planners.split(",") if p.strip()]:
        row = run_planner(planner, events, args)
        rows.append(row)
        print(f"{planner:8s} steady-state FR {row['steady_state_fragment_rate']:.4f}  "
              f"final FR {row['final_fragment_rate']:.4f}  "
              f"invalidation {row['invalidation_rate']:.3f}  "
              f"drift events {len(row['drift_events'])}  "
              f"({row['wall_seconds']:.1f}s wall)")

    payload = {
        "config": {
            "horizon_days": args.horizon_days,
            "num_pms": args.num_pms,
            "seed": args.seed,
            "family": args.family,
            "migration_limit": args.migration_limit,
            "replan_every_s": args.replan_every_s,
            "plan_delay_s": args.plan_delay_s,
            "num_events": len(events),
            "smoke": args.smoke,
        },
        "planners": rows,
    }
    print(json.dumps({"churn_longrun": {"config": payload["config"]}}, indent=2))
    if args.output:
        merged = {}
        if args.output.exists():
            try:
                merged = json.loads(args.output.read_text())
            except json.JSONDecodeError:
                merged = {}
        merged["churn_longrun"] = payload
        args.output.write_text(json.dumps(merged, indent=2))
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
