"""The repo's one benchmark: six workloads from the HTTP edge to the PPO update.

Two ways to run it, from the repository root:

* the whole suite — every workload in its own subprocess, three timed
  runs plus one traced run each, a result file with its environment::

      PYTHONPATH=src python -m benchmarks.e2e.run [--seed N] [--smoke] [--workload NAME]

* one run of one workload, the form ``BENCHMARK.json`` names; the last line
  of standard output is one JSON object::

      python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

See ``README.md`` beside this file for the metric and workload glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable, whether this file
    runs as a script or as ``-m benchmarks.e2e.run``, and pin BLAS threads.
    Runs before NumPy is first imported; replica processes inherit the pins."""
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from benchmarks.e2e.spec import BLAS_PINS

    os.environ.update(BLAS_PINS)


def stop_resource_tracker() -> None:
    """``multiprocessing`` (spawn) starts a helper process that otherwise
    lingers until this one has exited; end it and wait, so that every process
    this run started has ended before it returns."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_fd", None) is not None:
        stop()


def print_metrics(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")


def run_single(args) -> int:
    """One run in this process; the last line of stdout is the result.
    Exits non-zero when an operation failed the correctness check."""
    from benchmarks.e2e.harness import run_once

    try:
        result, detail = run_once(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
    finally:
        stop_resource_tracker()
    print_metrics(result)
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 1 if result["failed"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, help="how long one run measures")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="single-run mode: 0 prints the end-to-end metrics, 1 the per-layer ones",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes and passes")
    parser.add_argument("--output", type=Path, help="suite mode: where to write the result file")
    args = parser.parse_args(argv)
    bootstrap()

    from benchmarks.e2e import spec

    if args.workload is not None and args.workload not in spec.WORKLOADS_BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; known: {list(spec.WORKLOADS_BY_NAME)}")
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(
            json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        )
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_single(args)

    from benchmarks.e2e.suite import run_suite

    return run_suite(args)


# Replica processes start with ``spawn`` and import this file again as
# ``__mp_main__``; only the real entry point may run the benchmark.
if __name__ == "__main__":
    raise SystemExit(main())
