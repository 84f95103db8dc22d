"""Load loops.  ONE thread generates all load (the runner has 2 cores):
several outstanding requests and the open loop use ``submit()`` futures
with done-callbacks, never extra client threads.

Every loop returns a :class:`Pass`; replies are checked after the timed
window, so checking never steals time from the system under test.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .spans import Tracer

#: No single request of any workload takes this long; waiting longer than
#: this for a reply ends the run instead of hanging it.
REPLY_TIMEOUT_S = 120.0


@dataclass
class Sample:
    index: int  # position in the request pool
    latency_ms: float
    reply: object  # PlanResponse, PlanError, or an exception for a lost future


@dataclass
class Pass:
    samples: List[Sample] = field(default_factory=list)
    wall_s: float = 0.0
    #: Open loop only: how late each request was sent (ms).
    late_ms: List[float] = field(default_factory=list)

    def latencies(self) -> List[float]:
        return [sample.latency_ms for sample in self.samples]


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def closed_seq(
    plan: Callable,
    requests: Sequence,
    seconds: float,
    tracer: Tracer,
    span_name: str,
    offset: int = 0,
) -> Pass:
    """Closed loop, one outstanding: the next request goes out when the
    previous reply is in.  Every loop starts at ``requests[offset]``."""
    result = Pass()
    start = time.perf_counter()
    sent = offset
    while True:
        index = sent % len(requests)
        request = requests[index]
        began = time.perf_counter()
        with tracer.span(span_name, request.request_id):
            reply = plan(request)
        ended = time.perf_counter()
        result.samples.append(Sample(index, (ended - began) * 1e3, reply))
        sent += 1
        if ended - start >= seconds:
            break
    result.wall_s = ended - start
    return result


def closed_window(
    submit: Callable,
    requests: Sequence,
    seconds: float,
    window: int,
    tracer: Tracer,
    span_name: str,
    offset: int = 0,
) -> Pass:
    """Closed loop, ``window`` outstanding from one thread: each completion
    (timed in the done-callback) releases the next submission."""
    result = Pass()
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    start = time.perf_counter()
    sent, outstanding = offset, 0

    def send() -> None:
        nonlocal sent, outstanding
        index = sent % len(requests)
        began = time.perf_counter()
        future = submit(requests[index])
        future.add_done_callback(
            lambda fut, index=index, began=began: done.put(
                (index, began, time.perf_counter(), fut)
            )
        )
        sent += 1
        outstanding += 1

    for _ in range(window):
        send()
    last = start
    while outstanding:
        index, began, ended, future = done.get(timeout=REPLY_TIMEOUT_S)
        outstanding -= 1
        last = max(last, ended)
        tracer.record(span_name, began, ended, requests[index].request_id)
        result.samples.append(Sample(index, (ended - began) * 1e3, future.result()))
        if time.perf_counter() - start < seconds:
            send()
    result.wall_s = last - start
    return result


def arrival_times(rate: float, seconds: float, seed: int, offset: int = 0) -> np.ndarray:
    """A Poisson process at ``rate`` conditioned on its count: exactly
    ``round(rate * seconds)`` arrivals at sorted uniform times, so the offered
    load is the same on every seed and only the spacing varies (also between
    the passes of a run, which differ in ``offset``)."""
    count = max(int(round(rate * seconds)), 1)
    return np.sort(np.random.default_rng([seed, 3, offset]).uniform(0.0, seconds, count))


def open_loop(
    submit: Callable,
    requests: Sequence,
    seconds: float,
    rate: float,
    seed: int,
    tracer: Tracer,
    span_name: str,
    offset: int = 0,
) -> Pass:
    """Open loop: requests go out on a fixed schedule whatever the system
    does.  Latency runs from when a request was *due*, so a stall is charged
    to every request it delays; how late the generator ran is reported."""
    result = Pass()
    due = arrival_times(rate, seconds, seed, offset)
    ended: List[Optional[float]] = [None] * len(due)
    futures = []
    start = time.perf_counter()
    for slot, due_at in enumerate(due):
        delay = start + due_at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        result.late_ms.append((time.perf_counter() - start - due_at) * 1e3)
        future = submit(requests[(offset + slot) % len(requests)])
        future.add_done_callback(
            lambda fut, slot=slot: ended.__setitem__(slot, time.perf_counter())
        )
        futures.append(future)
    last = start
    for slot, future in enumerate(futures):
        index = (offset + slot) % len(requests)
        try:
            reply = future.result(timeout=REPLY_TIMEOUT_S)
        except Exception as exc:  # a lost future is a failed request, not a crash
            reply = exc
        # result() can return just before the done-callback has run.
        finished = ended[slot] if ended[slot] is not None else time.perf_counter()
        began = start + due[slot]
        last = max(last, finished)
        tracer.record(span_name, began, finished, requests[index].request_id)
        result.samples.append(Sample(index, (finished - began) * 1e3, reply))
    result.wall_s = last - start
    return result
