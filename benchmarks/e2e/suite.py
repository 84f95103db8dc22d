"""Suite mode: every workload in its own subprocess, one result file.

Per workload: ``RUNS`` timed runs (each of three passes with their own set-up
and warm-up, see ``harness.py``) and one traced run.  A metric's reported value
is the median of its per-run values, with ``(max - min) / median`` beside it as
its spread.  The result
file carries the environment the numbers were taken in;
``python -m benchmarks.e2e.compare A.json B.json`` compares two of them.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from . import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

RUNS = 3
#: Generous: the first run in a checkout may also compile bytecode.
RUN_TIMEOUT_S = 600


def run_subprocess(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool
) -> Tuple[Optional[dict], dict, str]:
    """One single-run invocation; returns ``(result, detail, error text)``."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, {}, f"timed out after {RUN_TIMEOUT_S}s"
    lines = done.stdout.strip().splitlines()
    # A run with failed operations exits 1 but still prints its result line.
    if done.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        return None, {}, (done.stderr or done.stdout)[-2000:]
    detail = next(
        (json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")), {}
    )
    return json.loads(lines[-1]), detail, ""


def environment(args, runs: int) -> dict:
    import numpy

    from repro.serve import FleetConfig

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": runs,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_thread_pins": spec.BLAS_PINS,
        "start_method": FleetConfig().start_method or "spawn",
    }


def summarize(values: List[float]) -> Dict[str, float]:
    middle = median(values)
    return {
        "median": middle,
        "spread": (max(values) - min(values)) / middle if middle else 0.0,
        "values": values,
    }


def run_workload(workload: spec.Workload, args, runs: int) -> dict:
    entry: dict = {"why": workload.why, "runs": [], "errors": []}
    results = []
    for _ in range(runs):
        result, detail, error = run_subprocess(
            workload.name, args.seed, args.seconds, 0, args.smoke
        )
        if result is None:
            entry["errors"].append(error)
            continue
        results.append(result)
        entry["runs"].append(detail)
    traced, traced_detail, error = run_subprocess(
        workload.name, args.seed, args.seconds, 1, args.smoke
    )
    if traced is None:
        entry["errors"].append(error)
    entry["traced"] = traced_detail
    entry["attempted"] = sum(r["attempted"] for r in results + ([traced] if traced else []))
    entry["failed"] = sum(r["failed"] for r in results + ([traced] if traced else []))
    entry["unresolved"] = any(detail.get("unresolved") for detail in entry["runs"])
    entry["end_to_end"] = {
        name: dict(
            summarize([r["metrics"][name]["value"] for r in results]),
            unit=unit, better=better, bound=bound,
        )
        for name, unit, better, bound in spec.END_TO_END
        if results
    }
    entry["per_layer"] = traced["metrics"] if traced else {}
    return entry


def print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}: {entry['attempted']} operations, {entry['failed']} failed"
          + (" [unresolved: generator ran late]" if entry["unresolved"] else ""))
    for metric, row in entry["end_to_end"].items():
        print(f"  {metric:30s} {row['median']:14.6g} {row['unit']:6s} spread {row['spread']:.3f}")
    for metric, row in entry["per_layer"].items():
        value = "null" if row["value"] == spec.SKIPPED else f"{row['value']:14.6g}"
        print(f"  {metric:30s} {value:>14s} {row['unit']}")
    for skipped in entry["traced"].get("probes_skipped", []):
        print(f"  probe skipped: {skipped}")
    for error in entry["errors"]:
        print(f"  RUN FAILED: {error}")


def run_suite(args) -> int:
    runs = 1 if args.smoke else RUNS
    workloads = [w for w in spec.WORKLOADS if args.workload in (None, w.name)]
    payload = {"benchmark": "e2e", "environment": environment(args, runs), "workloads": {}}
    for workload in workloads:
        entry = run_workload(workload, args, runs)
        payload["workloads"][workload.name] = entry
        print_workload(workload.name, entry)
    output = args.output or spec.OUT_DIR / f"result_seed{args.seed}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"\nwrote {output}")
    broken = [
        name for name, entry in payload["workloads"].items()
        if entry["failed"] or entry["errors"]
    ]
    if broken:
        print(f"FAILED: {', '.join(broken)}")
    return 1 if broken else 0
