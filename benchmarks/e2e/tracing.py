"""The traced run (``--trace 1``): every per-layer metric of one workload.

End-to-end metrics are measured with tracing off; this separate run records
spans around each call into a layer and derives the per-layer numbers:

1. the workload's own driver over a quarter of its pass length, untraced
   and then traced — the difference is the tracing overhead;
2. a *ladder*: the same requests, one at a time, through
   ``service.handle``, ``fleet.plan`` and ``client.plan``, so that each
   layer's self time is the difference of two medians on identical inputs;
3. the correctness check on every reply, and the plan comparison against
   the sequential ``service.handle`` reference;
4. the probes of :mod:`benchmarks.e2e.probes`.

Spans and the per-layer table go to ``_out/trace_<workload>.json``.
"""

from __future__ import annotations

import time
from statistics import mean, median
from typing import Dict, List

from repro.serve import PlanResponse

from . import spec
from .harness import (
    check_pass,
    check_train,
    run_loop,
    sizes,
    span_name,
    to_result,
    train,
    train_states,
)
from .inputs import make_cluster, make_requests
from .loops import Pass, Sample, percentile
from .probes import ProbeContext, run_probes
from .spans import Tracer
from .stacks import FleetStack, ServiceStack


def ladder(service, fleet_stack, requests, seconds: float, tracer: Tracer) -> Dict[str, Pass]:
    """Each request through the three entry points in turn, so drift in the
    machine's speed hits all three alike.  At least three requests."""
    rungs = {
        "service.handle": service.plan,
        "fleet.plan": fleet_stack.fleet.plan,
        "http.client.plan": fleet_stack.plan,
    }
    passes = {name: Pass() for name in rungs}
    start = time.perf_counter()
    for index, request in enumerate(requests):
        if index >= 3 and time.perf_counter() - start >= seconds:
            break
        for name, call in rungs.items():
            began = time.perf_counter()
            with tracer.span(name, request.request_id):
                reply = call(request)
            passes[name].samples.append(Sample(index, (time.perf_counter() - began) * 1e3, reply))
    return passes


def service_metrics(replies: List[PlanResponse]) -> Dict[str, float]:
    """What the service reports about itself in ``reply.metrics``."""
    metrics = [reply.metrics for reply in replies]
    steps = [len(reply.migrations) for reply in replies]
    per_step = [m["inference_ms"] / n for m, n in zip(metrics, steps) if n]
    return {
        "service.queue_ms_p50": median(m["queue_ms"] for m in metrics),
        "service.batch_size_mean": mean(m["batch_size"] for m in metrics),
        "service.inference_ms_p50": median(m["inference_ms"] for m in metrics),
        # Validation, snapshot decoding and the plan-quality replay.  The
        # service counts latency_ms from dispatch, so queue_ms is not in it.
        "service.overhead_ms_p50": median(m["latency_ms"] - m["inference_ms"] for m in metrics),
        "core.plan_steps": mean(steps),
        "core.plan_ms_per_step": median(per_step) if per_step else 0.0,
    }


def traced_run(workload: spec.Workload, seed: int, seconds: float, smoke: bool):
    tracer, off = Tracer(), Tracer(enabled=False)
    size = sizes(smoke)[workload.size]
    quarter = seconds / 4.0
    serving = workload.loop != "train"

    base = make_cluster(size, seed)
    # The train workload has no requests of its own: its ladder and probes
    # use greedy RL requests over its cluster.
    requests = make_requests(
        base, size.pool, workload.planner, workload.migration_limit, seed, workload.name
    )
    small_states = train_states(sizes(smoke)["small"], seed)

    service = fleet_stack = None
    try:
        service = ServiceStack()
        fleet_stack = FleetStack()
        own = {"service": service, "fleet": fleet_stack, "http": fleet_stack}.get(workload.stack)

        # 1. own driver, untraced then traced
        if serving:
            untraced = run_loop(workload, own, requests, quarter, seed, off)
            traced = run_loop(workload, own, requests, quarter, seed, tracer)
            checked = check_pass(traced, requests, workload.limit_ms, tracer)
        else:
            iterations = 1 if smoke else 3
            untraced = train(workload, small_states, iterations, smoke, off)
            traced = train(workload, small_states, iterations, smoke, tracer)
            checked = check_train(
                traced, smoke, workload.limit_ms, untraced.samples[0].reply.policy_loss
            )

        if not checked.ok_latencies:
            raise RuntimeError(f"{workload.name}: no operation succeeded: {dict(checked.reasons)}")

        # 2. the ladder, and 3. its checks
        rungs = ladder(service, fleet_stack, requests, quarter, tracer)
        rung_checks = {
            name: check_pass(result, requests, float("inf"), tracer)
            for name, result in rungs.items()
        }
        fleet_stats = fleet_stack.fleet.stats()
        service_stats = service.service.stats()
    finally:
        for stack in (fleet_stack, service):
            if stack is not None:
                stack.stop()

    attempted = checked.attempted + sum(c.attempted for c in rung_checks.values())
    failed = checked.failed + sum(c.failed for c in rung_checks.values())
    reference = {s.index: s.reply for s in rungs["service.handle"].samples}
    compared = [
        sample
        for result in (rungs["fleet.plan"], rungs["http.client.plan"], traced if serving else Pass())
        for sample in result.samples
        if sample.index in reference and isinstance(sample.reply, PlanResponse)
    ]
    matches = sum(
        isinstance(reference[s.index], PlanResponse)
        and s.reply.migrations == reference[s.index].migrations
        for s in compared
    )
    p50 = {name: median(result.latencies()) for name, result in rungs.items()}
    fr_after = [v for c in (checked, *rung_checks.values()) for v in c.fr_after.values()]
    handled = [s.reply for s in rungs["service.handle"].samples if isinstance(s.reply, PlanResponse)]
    if not handled:
        raise RuntimeError(f"{workload.name}: no ladder request succeeded")
    own_replies = [s.reply for s in traced.samples if isinstance(s.reply, PlanResponse)]

    metrics = {
        "http.self_ms": p50["http.client.plan"] - p50["fleet.plan"],
        # Sizes of the JSON bodies as the client and server encode them.
        "http.request_bytes": mean(len(r.to_json().encode("utf-8")) for r in requests[: len(handled)]),
        "http.response_bytes": mean(len(r.to_json().encode("utf-8")) for r in handled),
        "fleet.self_ms": p50["fleet.plan"] - p50["service.handle"],
        "fleet.start_s": fleet_stack.fleet_start_s,
        "fleet.retried": fleet_stats["retried"],
        "fleet.shed": fleet_stats["shed"],
        "fleet.replica_failures": fleet_stats["replica_failures"],
        "fleet.errors": fleet_stats["errors"],
        "service.seq_latency_ms": p50["service.handle"],
        "service.shed": service_stats["shed"],
        "service.errors": service_stats["errors"],
        "service.plan_match_ratio": matches / max(len(compared), 1),
        "gen.late_p99_ms": percentile(traced.late_ms, 99) if traced.late_ms else 0.0,
        "trace.overhead_ratio": median(traced.latencies()) / median(untraced.latencies()) - 1.0,
        "quality.op_p90_ms": percentile(checked.ok_latencies, 90),
        "quality.fr_after": mean(fr_after),
        "quality.within_limit_ratio": checked.within_limit / checked.attempted,
        "quality.fail_ratio": failed / attempted,
    }
    metrics.update(service_metrics(own_replies if serving and own_replies else handled))

    # 4. probes
    probe_metrics, skipped = run_probes(
        ProbeContext(
            tracer=tracer, workload=workload, size=size, seed=seed, smoke=smoke,
            base=base, requests=requests, replies=handled, small_states=small_states,
        )
    )
    metrics.update(probe_metrics)
    per_step = metrics["core.plan_ms_per_step"]
    seen = metrics["env.step_ms"] + metrics["core.act_cached_ms"]
    # How much of a planner step the outside view cannot attribute: the
    # number a later in-program span spine should drive to ~0.
    metrics["trace.unattributed_ratio"] = 1.0 - seen / per_step if per_step > 0 and seen > 0 else 0.0

    trace_path = spec.OUT_DIR / f"trace_{workload.name}.json"
    tracer.dump(trace_path, {"workload": workload.name, "seed": seed, "metrics": metrics})
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "own_driver_span": span_name(workload) if serving else "agent.train_on_states",
        "sent": attempted,
        "ok": attempted - failed,
        "failed": failed,
        "fail_reasons": {
            name: dict(c.reasons)
            for name, c in {"own": checked, **rung_checks}.items() if c.reasons
        },
        "ladder_requests": len(handled),
        "ladder_p50_ms": p50,
        "service_latency_ms_p50": median(r.metrics["latency_ms"] for r in handled),
        "probes_skipped": skipped,
        "plan_sha": checked.sha,
        "trace_file": str(trace_path.relative_to(spec.OUT_DIR.parents[2])),
    }
    return to_result(metrics, spec.PER_LAYER, attempted, failed), detail
