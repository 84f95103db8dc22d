"""Command-line interface for the VMR2L reproduction.

Provides the day-to-day operations a cluster operator or researcher needs
without writing Python:

``python -m repro.cli generate-dataset``
    Generate and persist a synthetic mapping dataset (Medium/Large/... analogue).
``python -m repro.cli train``
    Train a VMR2L agent on a dataset's training split and save the checkpoint.
``python -m repro.cli evaluate``
    Evaluate planners (the RL agent and/or baselines) on the test split.
``python -m repro.cli plan``
    Compute a migration plan for a single mapping snapshot and print it.
``python -m repro.cli serve``
    Run the JSON planning service over HTTP (or handle one request with
    ``--once``).
``python -m repro.cli simulate``
    Run a trace-driven living-cluster simulation: seeded synthetic churn
    (or a recorded trace) with periodic online replanning, in-process or
    against a running serve endpoint (see ``docs/simulation.md``).

``plan``, ``evaluate``, ``serve`` and ``simulate`` are thin clients of the same
:class:`repro.serve.ReschedulingService`, so the CLI, the HTTP server and the
tests exercise one code path (see ``docs/serving.md``).  Every subcommand
prints a compact table and returns machine-readable JSON when ``--json`` is
given.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .analysis import format_table, render_trace, trace_plan
from .cluster import ConstraintConfig
from .core import VMR2LAgent, VMR2LConfig
from .datasets import (
    DatasetReader,
    SnapshotGenerator,
    build_dataset,
    get_spec,
    load_mappings,
    spec_for_workload,
)
from .serve import (
    AutoscaleConfig,
    BrownoutConfig,
    DefaultRegistryFactory,
    FleetConfig,
    PlanError,
    PlanRequest,
    PlanningClient,
    PlanningServer,
    ReplicaFleet,
    ReschedulingService,
    RetryPolicy,
    ServiceConfig,
    build_default_registry,
)
from .sim import (
    ChurnSpec,
    LivingCluster,
    OnlineRescheduler,
    SimulationConfig,
    SyntheticTrace,
    load_trace,
    save_trace,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate-dataset", help="generate a synthetic mapping dataset")
    generate.add_argument("--output", required=True, help="dataset directory to create")
    generate.add_argument("--preset", default="small", help="cluster preset (small/medium/large/multi_resource)")
    generate.add_argument("--workload", default=None, help="optional workload level (low/middle/high)")
    generate.add_argument("--num-mappings", type=int, default=40)
    generate.add_argument("--num-pms", type=int, default=None, help="override the preset PM count")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--json", action="store_true")

    train = subparsers.add_parser("train", help="train a VMR2L agent on a dataset")
    train.add_argument("--dataset", required=True, help="dataset directory from generate-dataset")
    train.add_argument("--checkpoint", required=True, help="path for the saved agent (.npz)")
    train.add_argument("--total-steps", type=int, default=4096)
    train.add_argument("--migration-limit", type=int, default=10)
    train.add_argument("--embed-dim", type=int, default=16)
    train.add_argument("--num-heads", type=int, default=2)
    train.add_argument("--num-blocks", type=int, default=1)
    train.add_argument("--extractor", default="sparse", choices=["sparse", "vanilla"])
    train.add_argument("--num-envs", type=int, default=1,
                       help="environments stepped in lock-step per PPO collection step")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--json", action="store_true")

    evaluate = subparsers.add_parser("evaluate", help="evaluate planners on the test split")
    evaluate.add_argument("--dataset", required=True)
    evaluate.add_argument("--checkpoint", default=None, help="VMR2L checkpoint to evaluate")
    evaluate.add_argument("--baselines", default="ha",
                          help="comma-separated registry keys (e.g. ha,vbpp,mip,pop,mcts,random)")
    evaluate.add_argument("--migration-limit", type=int, default=10)
    evaluate.add_argument("--max-mappings", type=int, default=3)
    evaluate.add_argument("--objective", default="fragment_rate")
    evaluate.add_argument("--sampled", action="store_true",
                          help="risk-seeking (sampled) RL planning instead of greedy")
    evaluate.add_argument("--url", default=None,
                          help="evaluate against a running serve endpoint instead of "
                               "in-process (e.g. http://127.0.0.1:8731)")
    evaluate.add_argument("--retries", type=int, default=3,
                          help="transient-failure retries per request with --url")
    evaluate.add_argument("--json", action="store_true")

    plan = subparsers.add_parser("plan", help="compute a migration plan for one mapping")
    plan.add_argument("--mapping", required=True, help="JSON-lines file; the first mapping is used")
    plan.add_argument("--planner", default=None,
                      help="planner registry key (default: ha, or vmr2l when --checkpoint is given)")
    plan.add_argument("--checkpoint", default=None, help="VMR2L checkpoint backing the rl planner")
    plan.add_argument("--migration-limit", type=int, default=10)
    plan.add_argument("--objective", default="fragment_rate")
    plan.add_argument("--visualize", action="store_true", help="render per-step NUMA occupancy")
    plan.add_argument("--url", default=None,
                      help="plan against a running serve endpoint instead of "
                           "in-process (e.g. http://127.0.0.1:8731)")
    plan.add_argument("--retries", type=int, default=3,
                      help="transient-failure retries with --url (503/connection "
                           "reset back off and honor Retry-After)")
    plan.add_argument("--json", action="store_true")

    serve = subparsers.add_parser("serve", help="run the JSON planning service over HTTP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8731)
    serve.add_argument("--checkpoint", default=None, help="VMR2L checkpoint backing the rl planner")
    serve.add_argument("--replicas", type=int, default=0,
                       help="run a self-healing fleet of N replica processes over "
                            "shared read-only weights (0 = single in-process service)")
    serve.add_argument("--start-method", default=None, choices=["fork", "spawn"],
                       help="multiprocessing start method for --replicas (default spawn)")
    serve.add_argument("--min-replicas", type=int, default=0,
                       help="lower bound for the fleet autoscaler (0 = autoscaler off)")
    serve.add_argument("--max-replicas", type=int, default=0,
                       help="upper bound for the fleet autoscaler; setting it "
                            "enables closed-loop scaling between the bounds "
                            "(implies a fleet even without --replicas)")
    serve.add_argument("--brownout", action="store_true",
                       help="enable the fleet's overload brownout ladder (L0 normal "
                            "... L3 shed; implies a fleet even without --replicas)")
    serve.add_argument("--drain-timeout-s", type=float, default=30.0,
                       help="graceful-drain budget on SIGTERM")
    serve.add_argument("--max-batch-size", type=int, default=8,
                       help="micro-batch size for concurrent greedy RL requests "
                            "(1 = dispatch every request individually)")
    serve.add_argument("--max-queue-depth", type=int, default=0,
                       help="shed requests once this many are queued (0 = unbounded)")
    serve.add_argument("--fallback-planner", default=None,
                       help="registry key of the fast planner greedy requests "
                            "go to at brownout L2 (e.g. 'ha'; needs --brownout)")
    serve.add_argument("--fast-only", action="store_true",
                       help="register only the low-latency planners (rl, ha, vbpp, random)")
    serve.add_argument("--once", action="store_true",
                       help="handle one request from --request (or stdin) and exit")
    serve.add_argument("--request", default=None,
                       help="path to a PlanRequest JSON file ('-' for stdin) used with --once")
    serve.add_argument("--verbose", action="store_true", help="log HTTP requests")
    serve.add_argument("--json", action="store_true")

    simulate = subparsers.add_parser(
        "simulate", help="run a trace-driven living-cluster simulation")
    simulate.add_argument("--preset", default="small",
                          help="cluster preset (small/medium/large/multi_resource)")
    simulate.add_argument("--workload", default=None,
                          help="optional workload level (low/middle/high)")
    simulate.add_argument("--num-pms", type=int, default=None,
                          help="override the preset PM count")
    simulate.add_argument("--seed", type=int, default=0,
                          help="seeds the snapshot, the synthetic trace and the "
                               "engine — one seed fully determines the run")
    simulate.add_argument("--family", default="diurnal",
                          choices=("diurnal", "flash_crowd", "abnormal"),
                          help="synthetic churn workload family")
    simulate.add_argument("--horizon-days", type=float, default=1.0,
                          help="simulated horizon in days")
    simulate.add_argument("--peak-per-minute", type=float, default=2.0,
                          help="peak VM change rate of the family profile")
    simulate.add_argument("--trough-per-minute", type=float, default=0.2,
                          help="trough VM change rate of the family profile")
    simulate.add_argument("--resizes-per-hour", type=float, default=1.0)
    simulate.add_argument("--drains-per-day", type=float, default=2.0,
                          help="expected PM maintenance drains per day")
    simulate.add_argument("--failures-per-day", type=float, default=1.0,
                          help="expected hard PM failures per day")
    simulate.add_argument("--adds-per-day", type=float, default=3.0,
                          help="expected PM additions (newer hardware) per day")
    simulate.add_argument("--trace", default=None,
                          help="replay a recorded JSONL trace instead of "
                               "generating a synthetic one")
    simulate.add_argument("--record-trace", default=None,
                          help="save the event stream as a JSONL trace file")
    simulate.add_argument("--planner", default=None,
                          help="planner registry key (default: ha, or vmr2l when "
                               "--checkpoint is given)")
    simulate.add_argument("--checkpoint", default=None,
                          help="VMR2L checkpoint backing the rl planner")
    simulate.add_argument("--migration-limit", type=int, default=8)
    simulate.add_argument("--objective", default="fragment_rate")
    simulate.add_argument("--replan-every-s", type=float, default=1800.0,
                          help="simulated seconds between replanning rounds")
    simulate.add_argument("--plan-delay-s", type=float, default=60.0,
                          help="simulated planning+migration latency per round "
                               "(churn in this window can invalidate the plan)")
    simulate.add_argument("--max-rounds", type=int, default=None,
                          help="cap on replanning rounds (smoke runs)")
    simulate.add_argument("--deadline-ms", type=float, default=None,
                          help="per-request soft deadline forwarded to the planner")
    simulate.add_argument("--fast-only", action="store_true",
                          help="register only the low-latency planners")
    simulate.add_argument("--url", default=None,
                          help="plan against a running serve endpoint instead of "
                               "in-process (e.g. http://127.0.0.1:8731)")
    simulate.add_argument("--retries", type=int, default=3,
                          help="transient-failure retries per request with --url")
    simulate.add_argument("--json", action="store_true")
    return parser


# --------------------------------------------------------------------------- #
# Subcommand implementations (also used directly by tests)
# --------------------------------------------------------------------------- #
def cmd_generate_dataset(args) -> Dict:
    if args.workload:
        spec = spec_for_workload(args.workload, base=args.preset)
    else:
        spec = get_spec(args.preset)
    if args.num_pms:
        spec = type(spec)(**{**spec.__dict__, "num_pms": args.num_pms})
    splits, root = build_dataset(spec, num_mappings=args.num_mappings, root=args.output, seed=args.seed,
                                 workload_level=args.workload or "high")
    summary = {
        "dataset": str(root),
        "num_pms": spec.num_pms,
        "splits": {name: len(states) for name, states in splits.items()},
    }
    _emit(args, [summary], title="generated dataset")
    return summary


def cmd_train(args) -> Dict:
    reader = DatasetReader(args.dataset)
    train_states = reader.load_split("train")
    eval_states = None
    if "validation" in reader.available_splits():
        eval_states = reader.load_split("validation", limit=2)
    config = VMR2LConfig.compact(args.migration_limit, embed_dim=args.embed_dim, num_heads=args.num_heads,
                                 num_blocks=args.num_blocks, extractor=args.extractor)
    config.ppo.seed = args.seed
    agent = VMR2LAgent(config, constraint_config=ConstraintConfig(migration_limit=args.migration_limit),
                       seed=args.seed)
    history = agent.train_on_states(train_states, total_steps=args.total_steps,
                                    eval_states=eval_states, eval_every=4,
                                    num_envs=args.num_envs)
    path = agent.save(args.checkpoint)
    summary = {
        "checkpoint": str(path),
        "num_envs": args.num_envs,
        "updates": len(history),
        "final_mean_reward": history[-1].mean_reward if history else 0.0,
        "final_eval_metric": next((h.eval_metric for h in reversed(history) if h.eval_metric is not None), None),
    }
    _emit(args, [summary], title="training summary")
    return summary


def _build_service(args, max_batch_size: int = 8) -> ReschedulingService:
    """One registry + service for the thin-client subcommands."""
    checkpoint = getattr(args, "checkpoint", None)
    registry = build_default_registry(
        checkpoint=checkpoint,
        include_slow=not getattr(args, "fast_only", False),
    )
    config = ServiceConfig(
        max_batch_size=max_batch_size,
        max_queue_depth=getattr(args, "max_queue_depth", 0),
    )
    return ReschedulingService(registry, config)


def _make_client(args) -> PlanningClient:
    """HTTP client with bounded retry/backoff honoring ``Retry-After``."""
    return PlanningClient(
        args.url, retry=RetryPolicy(max_retries=max(getattr(args, "retries", 3), 0))
    )


def cmd_evaluate(args) -> List[Dict]:
    reader = DatasetReader(args.dataset)
    test_states = reader.load_split("test", limit=args.max_mappings)
    client = _make_client(args) if args.url else None
    service = None
    if client is None:
        service = _build_service(args, max_batch_size=max(len(test_states), 1))
    planner_keys = [token.strip().lower() for token in args.baselines.split(",") if token.strip()]
    if args.checkpoint and "vmr2l" not in planner_keys:
        planner_keys.append("vmr2l")
    if service is not None:
        for key in planner_keys:
            if key not in service.registry:
                raise SystemExit(f"unknown planner {key!r}; choose from {service.registry.names()}")

    rows = []
    for key in planner_keys:
        requests = [
            PlanRequest.from_state(
                state,
                planner=key,
                migration_limit=args.migration_limit,
                objective=args.objective,
                greedy=not args.sampled,
            )
            for state in test_states
        ]
        if client is not None:
            replies = [client.plan(request) for request in requests]
        else:
            replies = service.handle_many(requests)
        failures = [reply for reply in replies if isinstance(reply, PlanError)]
        if failures:
            raise SystemExit(f"planner {key!r} failed: {failures[0].message}")
        rows.append(
            {
                "algorithm": replies[0].planner,
                "mean_fragment_rate": sum(r.final_objective for r in replies) / len(replies),
                "mean_inference_s": sum(r.metrics["planner_seconds"] for r in replies) / len(replies),
                "mappings": len(test_states),
            }
        )
    _emit(args, rows, title=f"evaluation on {args.dataset} (MNL={args.migration_limit})")
    return rows


def cmd_plan(args) -> Dict:
    states = load_mappings(args.mapping, limit=1)
    if not states:
        raise SystemExit(f"no mappings found in {args.mapping}")
    state = states[0]
    planner_key = args.planner or ("vmr2l" if args.checkpoint else "ha")
    request = PlanRequest.from_state(
        state,
        planner=planner_key,
        migration_limit=args.migration_limit,
        objective=args.objective,
    )
    if args.url:
        reply = _make_client(args).plan(request)
    else:
        reply = _build_service(args).handle(request)
    if isinstance(reply, PlanError):
        raise SystemExit(f"planning failed ({reply.code}): {reply.message}")
    summary = {
        "algorithm": reply.planner,
        "initial_fragment_rate": reply.initial_objective,
        "final_fragment_rate": reply.final_objective,
        "migrations": [(m["vm_id"], m["dest_pm_id"]) for m in reply.migrations],
        "inference_s": reply.metrics["planner_seconds"],
    }
    _emit(args, [dict(summary, migrations=len(reply.migrations))], title="plan summary")
    if args.visualize and not args.json:
        print()
        print(render_trace(trace_plan(state, reply.plan()), max_steps=10))
    return summary


def _build_fleet(args) -> ReplicaFleet:
    """A replica fleet sharing one read-only weight copy across replicas."""
    agent = (
        VMR2LAgent.load(args.checkpoint) if args.checkpoint else VMR2LAgent(seed=0)
    )
    factory = DefaultRegistryFactory.from_agent(
        agent, include_slow=not getattr(args, "fast_only", False)
    )
    autoscale = None
    max_replicas = getattr(args, "max_replicas", 0) or 0
    if max_replicas > 0:
        autoscale = AutoscaleConfig(
            min_replicas=max(getattr(args, "min_replicas", 0) or 0, 1),
            max_replicas=max_replicas,
        )
    brownout = None
    if args.brownout:
        brownout = BrownoutConfig(fallback_planner=args.fallback_planner)
    fleet_config = FleetConfig(
        num_replicas=args.replicas or (autoscale.min_replicas if autoscale else 1),
        start_method=args.start_method,
        max_inflight=args.max_queue_depth,
        drain_timeout_s=args.drain_timeout_s,
        autoscale=autoscale,
        brownout=brownout,
    )
    service_config = ServiceConfig(max_batch_size=args.max_batch_size)
    return ReplicaFleet(factory, config=fleet_config, service_config=service_config)


def _build_backend(args):
    """A fleet when any fleet flag is given (``--brownout`` too: the ladder
    lives in the fleet's control plane), else one in-process service."""
    if args.replicas > 0 or args.max_replicas > 0 or args.brownout:
        return _build_fleet(args)
    return _build_service(args, max_batch_size=args.max_batch_size)


def cmd_serve(args) -> Dict:
    if args.once:
        service = _build_service(args, max_batch_size=args.max_batch_size)
        if args.request in (None, "-"):
            text = sys.stdin.read()
        else:
            text = Path(args.request).read_text()
        request = PlanRequest.from_json(text)
        reply = service.handle(request)
        payload = reply.to_dict()
        print(json.dumps(payload, indent=None if args.json else 2, default=str))
        return payload

    backend = _build_backend(args)
    if isinstance(backend, ReplicaFleet):
        backend.start()
        described = backend.registry.describe()
        planners = ", ".join(sorted(entry.get("key", entry["name"]) for entry in described))
    else:
        planners = ", ".join(backend.registry.names())
    server = PlanningServer(
        backend, host=args.host, port=args.port, verbose=args.verbose
    )
    host, port = server.address
    if args.max_replicas > 0:
        mode = (f"autoscaled fleet {max(args.min_replicas, 1)}.."
                f"{args.max_replicas} replicas")
    elif isinstance(backend, ReplicaFleet):
        mode = f"{backend.config.num_replicas} replica(s)"
    else:
        mode = "single process"
    print(f"repro serve: listening on http://{host}:{port} ({mode}; "
          f"planners: {planners})", file=sys.stderr)

    # SIGTERM → graceful drain: stop admitting (503 + Retry-After), finish
    # in-flight requests, deregister (healthz 503), then exit.  The drain
    # runs off-thread: server.stop() must not be reached from under the
    # serve_forever frame the signal interrupted, or shutdown() deadlocks.
    import signal as _signal
    import threading as _threading

    def _drain_on_sigterm(signum, frame):
        _threading.Thread(
            target=server.drain,
            kwargs={"timeout": args.drain_timeout_s},
            name="sigterm-drain",
            daemon=True,
        ).start()

    try:
        _signal.signal(_signal.SIGTERM, _drain_on_sigterm)
    except ValueError:
        pass  # not the main thread (tests drive cmd_serve off-thread)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    return {"host": host, "port": port}


def cmd_simulate(args) -> Dict:
    if args.workload:
        spec = spec_for_workload(args.workload, base=args.preset)
    else:
        spec = get_spec(args.preset)
    if args.num_pms:
        spec = type(spec)(**{**spec.__dict__, "num_pms": args.num_pms})
    state = SnapshotGenerator(spec, seed=args.seed).generate()
    horizon_s = args.horizon_days * 86400.0

    churn = None
    if args.trace:
        header, events = load_trace(args.trace)
        meta = header.get("meta") or {}
        if meta.get("horizon_s"):
            horizon_s = float(meta["horizon_s"])
    else:
        churn = ChurnSpec(
            family=args.family,
            peak_per_minute=args.peak_per_minute,
            trough_per_minute=args.trough_per_minute,
            resizes_per_hour=args.resizes_per_hour,
            drains_per_day=args.drains_per_day,
            failures_per_day=args.failures_per_day,
            adds_per_day=args.adds_per_day,
        )
        events = SyntheticTrace(churn, seed=args.seed).generate(horizon_s)
    if args.record_trace:
        meta = {"preset": args.preset, "seed": args.seed, "horizon_s": horizon_s}
        if churn is not None:
            meta["churn"] = churn.to_dict()
        save_trace(events, args.record_trace, meta=meta)

    cluster = LivingCluster(state, events, seed=args.seed)
    planner_key = args.planner or ("vmr2l" if args.checkpoint else "ha")
    if args.url:
        plan_fn = _make_client(args).plan
    else:
        registry = build_default_registry(
            checkpoint=args.checkpoint, include_slow=not args.fast_only
        )
        service = ReschedulingService(registry)
        if planner_key not in registry:
            raise SystemExit(
                f"unknown planner {planner_key!r}; choose from {registry.names()}"
            )
        plan_fn = service.handle
    config = SimulationConfig(
        planner=planner_key,
        migration_limit=args.migration_limit,
        objective=args.objective,
        replan_every_s=args.replan_every_s,
        plan_delay_s=args.plan_delay_s,
        horizon_s=horizon_s,
        seed=args.seed,
        deadline_ms=args.deadline_ms,
        max_rounds=args.max_rounds,
    )
    report = OnlineRescheduler(cluster, plan_fn, config).run()
    payload = report.to_dict()
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        stats = payload["engine_stats"]
        row = {
            "planner": payload["planner"],
            "rounds": payload["num_rounds"],
            "failed": payload["failed_rounds"],
            "final_objective": round(payload["final_objective"], 6),
            "steady_state": round(payload["steady_state_objective"], 6),
            "invalidation": round(payload["invalidation_rate"], 4),
            "drift_events": len(payload["drift_events"]),
            "arrivals": stats["arrivals"],
            "exits": stats["exits"],
            "pm_churn": stats["drains"] + stats["failures"] + stats["adds"],
        }
        print(format_table([row], title=f"simulation over {horizon_s / 86400.0:g} day(s)"))
    return payload


def _emit(args, rows: Sequence[Dict], title: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(list(rows), indent=2, default=str))
    else:
        print(format_table(rows, title=title))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.fallback_planner and not args.brownout:
        parser.error("--fallback-planner is brownout L2's target; it needs --brownout")
    if args.command == "serve" and args.once and args.brownout:
        parser.error("--once serves one request: a brownout ladder has no load to read")
    handlers = {
        "generate-dataset": cmd_generate_dataset,
        "train": cmd_train,
        "evaluate": cmd_evaluate,
        "plan": cmd_plan,
        "serve": cmd_serve,
        "simulate": cmd_simulate,
    }
    handlers[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
