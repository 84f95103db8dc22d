"""Machine-speed index, taken while the program under test is idle.

The runner is a shared 2-vCPU VM whose speed changes under the benchmark: for
seconds to minutes at a time every CPU-bound thing on it, this file's kernel
included, runs 25-40 % slower, with no steal time to subtract (see the README
for the measurements).  Ten runs that straddle both speeds spread by as much
as the widest bound the benchmark may set, so a run times a fixed reference
kernel immediately before and after each interval it measures and reports its
times divided by the mean of the two indices, i.e. as they would read at the
runner's usual speed.

The kernel runs back to back in the calling thread for a fixed time, at moments
when the program under test has no request in flight, so the index cannot
depend on how busy the program keeps the CPUs; and it is this file's own NumPy
and Python code, so nothing under ``src/`` can speed it up or slow it down.
"""

from __future__ import annotations

import json
import time
from statistics import median

import numpy as np

#: Seconds per kernel call on this class of runner at its usual speed.  On
#: other hardware the index is off by a constant factor, the same on every run.
NOMINAL_S = 3.0e-3

_RNG = np.random.default_rng(0)
_SQUARE = _RNG.normal(size=(64, 64))
_WIDE = _RNG.normal(size=(256, 1024))


def kernel() -> None:
    """About a third each: small matmuls (BLAS and dispatch), a softmax over
    1 MB (memory), and interpreter work — the mix the workloads are made of.
    A single part tracked some workload badly: the softmax alone not the
    Python-heavy HTTP path, the Python loop alone not the attention-heavy one."""
    product = _SQUARE
    for _ in range(60):
        product = product @ _SQUARE
        product /= np.abs(product).max()
    scores = _WIDE.copy()
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    total, table = 0, {}
    for i in range(10000):
        table[i & 63] = total
        total += i * i
    json.dumps({"values": list(range(800))})


def speed_index(seconds: float) -> float:
    """Median kernel time over ``seconds`` of back-to-back calls, over the
    nominal time: about 1.0 at the runner's usual speed, 1.3-1.5 when it is slow."""
    times = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        times.append(ended - started)
        if ended >= deadline:
            return median(times) / NOMINAL_S
