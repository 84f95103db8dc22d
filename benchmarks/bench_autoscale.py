"""Autoscale soak: the closed-loop fleet under a flash-crowd simulation.

Two segments, both asserting the PR's hard invariants while recording the
numbers:

* **sim soak** — ``repro simulate --autoscale`` in library form: a
  flash-crowd living-cluster trace drives an autoscaled 1..3-replica fleet
  through the online rescheduler, with churn coupled to offered planning
  load (``load_per_event``).  Asserts at least one scale-up inside the
  burst, at least one scale-down after the post-burst cooldown, and the
  zero-drop invariant: every submitted request got exactly one terminal
  reply and none became an error.
* **brownout p99** — the same square offered-load burst replayed against
  (a) the autoscaled fleet with the brownout ladder and (b) the PR-7-style
  fixed single-replica fleet whose only overload control is admission
  shedding.  Records both latency profiles and asserts the brownout fleet's
  p99 over completed requests is no worse than the shed-only baseline's
  (within a small-sample tolerance).

Results are merged into ``BENCH_serve_throughput.json`` under the
``"autoscale"`` key, next to the soak benchmark's ``"soak"`` and ``"fleet"``
keys.

Run:  PYTHONPATH=src python benchmarks/bench_autoscale.py [--smoke] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.serve import (
    AutoscaleConfig,
    BrownoutConfig,
    DefaultRegistryFactory,
    FleetConfig,
    PlanRequest,
    ReplicaFleet,
    RetryPolicy,
    ServiceConfig,
)
from repro.sim import (
    ChurnSpec,
    LivingCluster,
    OnlineRescheduler,
    SimulationConfig,
    SyntheticTrace,
)
from repro.testing import LoadSpike


def _snapshot(seed: int = 5, num_pms: int = 6):
    spec = ClusterSpec(name="autoscale-bench", num_pms=num_pms,
                       target_utilization=0.65, best_fit_fraction=0.3)
    return SnapshotGenerator(spec, seed=seed).generate()


def _autoscaled_fleet(min_replicas: int = 1, max_replicas: int = 3,
                      brownout: BrownoutConfig | None = None) -> ReplicaFleet:
    """An aggressive small-scale fleet: decisions land within tens of ms so a
    bench round sees the full up-then-down cycle."""
    brownout = brownout if brownout is not None else BrownoutConfig()
    config = FleetConfig(
        num_replicas=min_replicas,
        start_method="fork",
        heartbeat_interval_s=0.05,
        supervise_interval_s=0.02,
        restart_backoff_s=0.05,
        retry=RetryPolicy(max_retries=3, backoff_s=0.05),
        autoscale=AutoscaleConfig(
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            scale_up_backlog=1.5,
            scale_down_backlog=0.3,
            alpha=1.0,
            cooldown_up_s=0.05,
            cooldown_down_s=0.5,
        ),
        brownout=brownout,
    )
    service_config = ServiceConfig(fallback_planner="ha", brownout=brownout)
    fleet = ReplicaFleet(DefaultRegistryFactory(), config=config,
                         service_config=service_config)
    fleet.start(timeout=120.0)
    return fleet


def _baseline_fleet(max_inflight: int) -> ReplicaFleet:
    """The pre-autoscale contract: one fixed replica, shed-only overload
    control (bounded in-flight), no brownout ladder."""
    config = FleetConfig(
        num_replicas=1,
        start_method="fork",
        heartbeat_interval_s=0.05,
        supervise_interval_s=0.02,
        restart_backoff_s=0.05,
        retry=RetryPolicy(max_retries=3, backoff_s=0.05),
        max_inflight=max_inflight,
    )
    fleet = ReplicaFleet(DefaultRegistryFactory(), config=config)
    fleet.start(timeout=120.0)
    return fleet


def _wait_until(predicate, timeout_s: float, interval_s: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


# --------------------------------------------------------------------- #
# Segment 1: flash-crowd simulation against the autoscaled fleet
# --------------------------------------------------------------------- #
def _sim_soak(smoke: bool) -> dict:
    state = _snapshot(seed=5)
    churn = ChurnSpec(
        family="flash_crowd",
        peak_per_minute=4.0,
        trough_per_minute=0.2,
        resizes_per_hour=2.0,
        drains_per_day=2.0,
        failures_per_day=1.0,
        adds_per_day=3.0,
    )
    horizon_s = 0.25 * 86400.0
    events = SyntheticTrace(churn, seed=5).generate(horizon_s)
    cluster = LivingCluster(state, events, seed=5)
    fleet = _autoscaled_fleet()
    try:
        config = SimulationConfig(
            planner="ha",
            migration_limit=4,
            replan_every_s=1800.0,
            plan_delay_s=60.0,
            horizon_s=horizon_s,
            seed=5,
            max_rounds=4 if smoke else 10,
            load_base=2,
            load_per_event=1.0,
            load_max=8 if smoke else 16,
        )
        report = OnlineRescheduler(
            cluster, fleet.plan, config,
            control_plane_stats=fleet.control_plane_stats,
        ).run()
        # The burst is over: the supervisor keeps ticking, so within a few
        # cooldown windows the fleet must give its extra capacity back.
        scaled_down = _wait_until(
            lambda: fleet.control_plane_stats()["scale_downs"] >= 1,
            timeout_s=20.0,
        )
        control = fleet.control_plane_stats()
    finally:
        fleet.stop()

    payload = report.to_dict()
    # Hard invariants of the tentpole.
    assert control["scale_ups"] >= 1, f"no scale-up under the flash crowd: {control}"
    assert scaled_down and control["scale_downs"] >= 1, (
        f"no scale-down after the burst cooled: {control}"
    )
    accounted = control["completed"] + control["errors"] + control["shed"]
    assert accounted == control["submitted"], (
        f"dropped requests: {control['submitted'] - accounted} of "
        f"{control['submitted']} never got a terminal reply"
    )
    assert control["errors"] == 0, f"requests failed during scaling: {control}"
    return {
        "rounds": payload["num_rounds"],
        "failed_rounds": payload["failed_rounds"],
        "offered_requests": payload["offered_requests"],
        "offered_per_round": [r["offered"] for r in payload["rounds"]],
        "control_plane": control,
        "zero_dropped": True,
    }


# --------------------------------------------------------------------- #
# Segment 2: brownout p99 vs the fixed shed-only baseline
# --------------------------------------------------------------------- #
def _drive_burst(fleet: ReplicaFleet, spike: LoadSpike, rounds: int,
                 migration_limit: int = 4, seed: int = 9) -> dict:
    base_state = _snapshot(seed=seed)
    requests_per_round = spike.schedule(rounds)
    ok = shed = failed = 0
    for offered in requests_per_round:
        futures = [
            fleet.submit(
                PlanRequest.from_state(
                    base_state, planner="ha", migration_limit=migration_limit
                )
            )
            for _ in range(offered)
        ]
        for future in futures:
            reply = future.result(timeout=120.0)
            if reply.ok:
                ok += 1
            elif reply.code == "service_unavailable":
                shed += 1
            else:
                failed += 1
        time.sleep(0.1)  # give the controllers an observation gap
    latency = fleet.latency_percentiles()
    return {
        "offered": sum(requests_per_round),
        "ok": ok,
        "shed": shed,
        "failed": failed,
        "latency_ms_p50": latency["p50_ms"],
        "latency_ms_p95": latency["p95_ms"],
        "latency_ms_p99": latency["p99_ms"],
    }


def _brownout_comparison(smoke: bool) -> dict:
    spike = (
        LoadSpike(base=1, peak=10, start_round=1, duration_rounds=2)
        if smoke
        else LoadSpike(base=2, peak=16, start_round=2, duration_rounds=3)
    )
    rounds = 5 if smoke else 9

    baseline = _baseline_fleet(max_inflight=8)
    try:
        base_result = _drive_burst(baseline, spike, rounds)
    finally:
        baseline.stop()

    autoscaled = _autoscaled_fleet()
    try:
        auto_result = _drive_burst(autoscaled, spike, rounds)
        auto_result["control_plane"] = autoscaled.control_plane_stats()
    finally:
        autoscaled.stop()

    assert auto_result["failed"] == 0 and base_result["failed"] == 0
    # The acceptance bar: brownout + autoscale must not trade away tail
    # latency relative to shed-only — small samples get a fixed tolerance.
    auto_p99 = auto_result["latency_ms_p99"]
    base_p99 = base_result["latency_ms_p99"]
    tolerance_ms = base_p99 * 0.25 + 50.0
    assert auto_p99 <= base_p99 + tolerance_ms, (
        f"brownout p99 {auto_p99:.1f}ms worse than shed-only baseline "
        f"{base_p99:.1f}ms (+{tolerance_ms:.1f}ms tolerance)"
    )
    return {
        "offered_schedule": list(spike.schedule(rounds)),
        "shed_only_baseline": base_result,
        "autoscale_brownout": auto_result,
        "p99_no_worse_than_baseline": True,
    }


def run(smoke: bool = False, output: Path | None = None) -> dict:
    soak = _sim_soak(smoke)
    comparison = _brownout_comparison(smoke)
    payload = {
        "benchmark": "autoscale",
        "config": {"smoke": smoke, "min_replicas": 1, "max_replicas": 3},
        "sim_soak": soak,
        "brownout_p99": comparison,
    }
    print(json.dumps(payload, indent=2))

    if output is not None:
        merged = {}
        if output.exists():
            try:
                merged = json.loads(output.read_text())
            except (ValueError, OSError):
                merged = {}
        merged["autoscale"] = payload
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
