"""One run of one workload: set up, measure for ``seconds``, check, report.

``run_once`` is what the driver's command executes.  With ``trace=False`` it
returns every end-to-end metric; with ``trace=True`` it hands over to
:mod:`benchmarks.e2e.tracing` for the per-layer metrics.
"""

from __future__ import annotations

import math
import resource
import time
from collections import Counter
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import PPOConfig, VMR2LAgent, VMR2LConfig
from repro.serve import PlanRequest

from . import spec
from .calibrate import speed_index
from .checks import check_reply, plan_sha
from .inputs import drifted, make_cluster, make_requests
from .loops import (
    REPLY_TIMEOUT_S,
    Pass,
    Sample,
    closed_seq,
    closed_window,
    open_loop,
    percentile,
)
from .spans import Tracer
from .stacks import AGENT_SEED, FleetStack, ServiceStack

#: Timed passes per run, each with its own set-up and a third of the run's
#: seconds; the run's values are taken over the operations of all passes.
PASSES = 3
#: A cheap set-up (the in-process service's takes 0.05 s, mostly scheduling
#: noise) is repeated within a pass until the set-ups add up to
#: ``MIN_SETUP_TOTAL_S``; the pass's ``setup_s`` is their median.
MAX_SETUP_REPEATS = 7
MIN_SETUP_TOTAL_S = 0.35
#: Segments of a pass's measured window; the machine's speed is calibrated
#: before the first and after each, so a run takes ``1 + PASSES * (1 +
#: SEGMENTS)`` calibrations of ``CALIBRATION_S`` seconds.
SEGMENTS = 2
CALIBRATION_S = 0.25
SMOKE_CALIBRATION_S = 0.02
#: Plans hashed into ``plan_sha`` (the first pool entries every run serves).
SHA_PLANS = 4


def sizes(smoke: bool) -> Dict[str, spec.Size]:
    return spec.SMOKE_SIZES if smoke else spec.SIZES


# ---------------------------------------------------------------------- #
# Serving workloads
# ---------------------------------------------------------------------- #
def span_name(workload: spec.Workload) -> str:
    if workload.stack == "http":
        return "http.client.plan"
    if workload.stack == "fleet":
        return "fleet.submit"
    return "service.submit" if workload.loop == "window" else "service.handle"


def run_loop(
    workload: spec.Workload, stack, requests, seconds: float, seed: int, tracer: Tracer,
    offset: int = 0,
) -> Pass:
    """``offset`` is where in the request pool the pass starts: a run's passes
    continue where the previous one stopped."""
    name = span_name(workload)
    if workload.loop == "seq":
        return closed_seq(stack.plan, requests, seconds, tracer, name, offset)
    if workload.loop == "window":
        return closed_window(
            stack.submit, requests, seconds, workload.window, tracer, name, offset
        )
    return open_loop(stack.submit, requests, seconds, workload.rate, seed, tracer, name, offset)


def set_up_serving(workload: spec.Workload, size: spec.Size, seed: int):
    """What ``setup_s`` times: cluster generation, agent/service/fleet/server
    start, and one warm-up request through the workload's own entry point."""
    base = make_cluster(size, seed)
    stack = ServiceStack() if workload.stack == "service" else FleetStack()
    try:
        warm = PlanRequest.from_state(
            base,
            planner=workload.planner,
            migration_limit=workload.migration_limit,
            request_id=f"{workload.name}-warm-up",
        )
        if workload.loop == "seq":
            reply = stack.plan(warm)
        else:
            reply = stack.submit(warm).result(timeout=REPLY_TIMEOUT_S)
        reason, _ = check_reply(warm, reply)
        if reason is not None:
            raise RuntimeError(f"warm-up request failed: {reason}")
    except BaseException:
        stack.stop()
        raise
    return stack, base


@dataclass
class Checked:
    """A pass after every reply went through the correctness check."""

    attempted: int
    reasons: Counter
    ok_latencies: List[float]
    within_limit: int
    #: Per distinct request (position in the pool), so that a faster run, which
    #: cycles further through the pool, reports the same fr_after and plan_sha.
    fr_after: Dict[int, float]
    first_plans: Dict[int, object]

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    @property
    def sha(self) -> str:
        return plan_sha(self.first_plans.get(index) for index in range(SHA_PLANS))


def check_pass(
    result: Pass, requests, limit_ms: float, tracer: Optional[Tracer] = None
) -> Checked:
    checked = Checked(len(result.samples), Counter(), [], 0, {}, {})
    for sample in result.samples:
        reason, after = check_reply(requests[sample.index], sample.reply, tracer)
        if reason is not None:
            checked.reasons[reason] += 1
            continue
        checked.ok_latencies.append(sample.latency_ms)
        checked.within_limit += sample.latency_ms <= limit_ms
        checked.fr_after.setdefault(sample.index, after)
        checked.first_plans.setdefault(sample.index, sample.reply.migrations)
    return checked


def pooled(checks: List[Checked]) -> Checked:
    """The passes of one run as one."""
    total = Checked(0, Counter(), [], 0, {}, {})
    for checked in checks:
        total.attempted += checked.attempted
        total.reasons.update(checked.reasons)
        total.ok_latencies += checked.ok_latencies
        total.within_limit += checked.within_limit
        for index, after in checked.fr_after.items():
            total.fr_after.setdefault(index, after)
        for index, plan in checked.first_plans.items():
            total.first_plans.setdefault(index, plan)
    return total


# ---------------------------------------------------------------------- #
# train_ppo_small
# ---------------------------------------------------------------------- #
def train_shape(smoke: bool) -> Tuple[int, int]:
    if smoke:
        return spec.SMOKE_TRAIN_ROLLOUT_STEPS, spec.SMOKE_TRAIN_MINIBATCH
    return spec.TRAIN_ROLLOUT_STEPS, spec.TRAIN_MINIBATCH


def train_agent(workload: spec.Workload, smoke: bool) -> VMR2LAgent:
    rollout_steps, minibatch = train_shape(smoke)
    config = VMR2LConfig(
        ppo=PPOConfig(
            rollout_steps=rollout_steps,
            minibatch_size=minibatch,
            update_epochs=spec.TRAIN_EPOCHS,
        ),
        migration_limit=workload.migration_limit,
    )
    return VMR2LAgent(config, seed=AGENT_SEED)


def train_states(size: spec.Size, seed: int) -> list:
    base = make_cluster(size, seed)
    rng = np.random.default_rng([seed, 4])
    return [base] + [drifted(base, rng) for _ in range(spec.TRAIN_NUM_STATES - 1)]


def train(workload: spec.Workload, states, iterations: int, smoke: bool, tracer: Tracer) -> Pass:
    """A fresh agent trained for ``iterations`` PPO iterations; one sample per
    iteration, timed by ``TrainingLogEntry.wall_clock_s``."""
    rollout_steps, _ = train_shape(smoke)
    agent = train_agent(workload, smoke)
    start = time.perf_counter()
    with tracer.span("agent.train_on_states"):
        history = agent.train_on_states(
            states, total_steps=iterations * rollout_steps, num_envs=spec.TRAIN_NUM_ENVS
        )
    result = Pass(wall_s=time.perf_counter() - start)
    previous = 0.0
    for index, entry in enumerate(history):
        result.samples.append(Sample(index, (entry.wall_clock_s - previous) * 1e3, entry))
        tracer.record("ppo.iteration", start + previous, start + entry.wall_clock_s)
        previous = entry.wall_clock_s
    return result


def check_train(
    result: Pass, smoke: bool, limit_ms: float, first_policy_loss: Optional[float]
) -> Checked:
    """Losses finite, ``global_step`` as expected, and the first iteration's
    ``policy_loss`` equal to the warm-up's (same seed, fresh agent)."""
    rollout_steps, _ = train_shape(smoke)
    checked = Checked(len(result.samples), Counter(), [], 0, {}, {})
    for sample in result.samples:
        entry = sample.reply
        if not all(math.isfinite(v) for v in (entry.policy_loss, entry.value_loss, entry.entropy)):
            checked.reasons["non_finite_loss"] += 1
        elif entry.global_step != (sample.index + 1) * rollout_steps:
            checked.reasons["wrong_global_step"] += 1
        elif (
            sample.index == 0
            and first_policy_loss is not None
            and entry.policy_loss != first_policy_loss
        ):
            checked.reasons["not_deterministic"] += 1
        else:
            checked.ok_latencies.append(sample.latency_ms)
            checked.within_limit += sample.latency_ms <= limit_ms
            checked.first_plans.setdefault(sample.index, repr(entry.policy_loss))
    return checked


# ---------------------------------------------------------------------- #
# One run
# ---------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class TimedPass:
    checked: Checked  # all segments pooled
    #: Median of this pass's set-ups, and the measured window's wall time.
    setup_s: float
    wall_s: float
    #: The same, and every ok operation's latency, as they would read at the
    #: runner's usual speed (see calibrate.py).
    normalised_setup_s: float
    normalised_wall_s: float
    normalised_latencies: List[float]
    #: Machine-speed index before the set-ups, then after each interval:
    #: the set-ups and every segment of the measured window.
    indices: List[float]
    late_ms: List[float]


def timed_pass(
    workload: spec.Workload,
    requests,
    seed: int,
    seconds: float,
    smoke: bool,
    offset: int,
    index_start: float,
) -> TimedPass:
    """Set up (a cheap set-up several times), measure for ``seconds`` in
    ``SEGMENTS`` segments with a calibration after each, check."""
    size = sizes(smoke)[workload.size]
    calibration_s = SMOKE_CALIBRATION_S if smoke else CALIBRATION_S
    segments = 1 if smoke else SEGMENTS
    setup_s: List[float] = []
    off = Tracer(enabled=False)
    results: List[Pass] = []

    def set_up_again() -> bool:
        return not setup_s or (
            not smoke and sum(setup_s) < MIN_SETUP_TOTAL_S and len(setup_s) < MAX_SETUP_REPEATS
        )

    if workload.loop == "train":
        while set_up_again():
            started = time.perf_counter()
            states = train_states(size, seed)
            warm = train(workload, states, 1, smoke, off)
            setup_s.append(time.perf_counter() - started)
        indices = [index_start, speed_index(calibration_s)]
        iterations = max(int(round(seconds / segments / warm.wall_s)), 2)
        for _ in range(segments):
            results.append(train(workload, states, iterations, smoke, off))
            indices.append(speed_index(calibration_s))
        first_loss = warm.samples[0].reply.policy_loss
        checks = [check_train(result, smoke, workload.limit_ms, first_loss) for result in results]
    else:
        stack = None
        try:
            while set_up_again():
                if stack is not None:
                    stack.stop()
                    stack = None
                started = time.perf_counter()
                stack, _ = set_up_serving(workload, size, seed)
                setup_s.append(time.perf_counter() - started)
            indices = [index_start, speed_index(calibration_s)]
            for _ in range(segments):
                results.append(
                    run_loop(workload, stack, requests, seconds / segments, seed, off, offset)
                )
                # Every reply is in: no request is in flight while this runs.
                indices.append(speed_index(calibration_s))
                offset += len(results[-1].samples)
        finally:
            if stack is not None:
                stack.stop()
        checks = [check_pass(result, requests, workload.limit_ms) for result in results]

    # Each interval reads as at the runner's usual speed through the mean of
    # the indices taken just before and just after it.
    between = [(a + b) / 2.0 for a, b in zip(indices, indices[1:])]
    setup_index, segment_index = between[0], between[1:]
    return TimedPass(
        checked=pooled(checks),
        setup_s=median(setup_s),
        wall_s=sum(result.wall_s for result in results),
        normalised_setup_s=median(setup_s) / setup_index,
        normalised_wall_s=sum(r.wall_s / index for r, index in zip(results, segment_index)),
        normalised_latencies=[
            ms / index for c, index in zip(checks, segment_index) for ms in c.ok_latencies
        ],
        indices=indices,
        late_ms=[late for result in results for late in result.late_ms],
    )


def run_once(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Returns ``(result, detail)``: the driver's last-line object and the
    sample counts and environment the suite keeps beside it."""
    workload = spec.WORKLOADS_BY_NAME[name]
    if trace:
        from .tracing import traced_run

        return traced_run(workload, seed, seconds, smoke)

    size = sizes(smoke)[workload.size]
    requests = None
    if workload.loop != "train":
        requests = make_requests(
            make_cluster(size, seed), size.pool, workload.planner, workload.migration_limit,
            seed, workload.name,
        )
    count = 1 if smoke else PASSES
    passes: List[TimedPass] = []
    index = speed_index(SMOKE_CALIBRATION_S if smoke else CALIBRATION_S)
    for _ in range(count):
        offset = sum(timed.checked.attempted for timed in passes)
        passes.append(timed_pass(workload, requests, seed, seconds / count, smoke, offset, index))
        index = passes[-1].indices[-1]

    checked = pooled([timed.checked for timed in passes])
    ok = len(checked.ok_latencies)
    if not ok:
        raise RuntimeError(f"{name}: no operation succeeded: {dict(checked.reasons)}")
    raw = {
        "setup_s": median(timed.setup_s for timed in passes),
        "op_p50_ms": percentile(checked.ok_latencies, 50),
        "ops_per_s": ok / sum(timed.wall_s for timed in passes),
    }
    latencies = [ms for timed in passes for ms in timed.normalised_latencies]
    values = {
        "setup_s": median(timed.normalised_setup_s for timed in passes),
        "op_p50_ms": percentile(latencies, 50),
        "ops_per_s": ok / sum(timed.normalised_wall_s for timed in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    if workload.loop == "open":  # goodput is set by the schedule, not by machine speed
        values["ops_per_s"] = raw["ops_per_s"]
    late_ms = [late for timed in passes for late in timed.late_ms]
    late_p99 = percentile(late_ms, 99) if late_ms else 0.0
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "sent": checked.attempted,
        "ok": ok,
        "failed": checked.failed,
        "fail_reasons": dict(checked.reasons),
        "passes": [
            {"sent": timed.checked.attempted, "setup_s": timed.setup_s, "wall_s": timed.wall_s,
             "speed_indices": timed.indices}
            for timed in passes
        ],
        "raw": raw,
        "limit_ms": workload.limit_ms,
        "quality.op_p90_ms": percentile(latencies, 90),  # normalised, as op_p50_ms is
        "quality.within_limit_ratio": checked.within_limit / checked.attempted,
        "quality.fr_after": (
            float(np.mean(list(checked.fr_after.values()))) if checked.fr_after else None
        ),
        "gen.late_p99_ms": late_p99,
        "unresolved": late_p99 > spec.LATE_LIMIT_MS,
        "plan_sha": checked.sha,
    }
    return to_result(values, spec.END_TO_END, checked.attempted, checked.failed), detail


def to_result(values: Dict[str, float], table, attempted: int, failed: int) -> dict:
    """The driver's last-line object: exactly ``correct``, ``attempted``,
    ``failed`` and ``metrics`` (every metric of ``table``, with its unit)."""
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            row[0]: {"value": float(values[row[0]]), "unit": row[1]} for row in table
        },
    }
