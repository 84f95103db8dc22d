"""Compare two suite result files, one row per workload × metric.

    python -m benchmarks.e2e.compare A.json B.json

``A`` is the base (the parent commit, or the first of two runs of the same
code), ``B`` the candidate.  The rows are the end-to-end metrics of
``BENCHMARK.json`` plus what a speed-up may not buy, read from the runs of
each file: ``quality.fr_after``, ``quality.within_limit_ratio``,
``quality.op_p90_ms`` (where every run has ``P90_MIN_SAMPLES`` operations)
and the count of failed operations.  Each row gives both medians, the ratio
B/A with its base, the bound, and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound and
  by more than either side's own spread between runs;
* ``unresolved`` — a side's spread between runs is wider than the bound,
  so this pair of files cannot tell (reported as such, never as unchanged);
* ``missing``    — the base has the workload or metric, the candidate does
  not (every run of it crashed, say);
* ``failed``     — the candidate has failed operations or crashed runs;
* ``ok``         — otherwise.

Exits non-zero on any ``regressed``, ``missing`` or ``failed`` row.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from statistics import median
from typing import List

#: ``quality.op_p90_ms`` is compared only where every run has this many ok
#: operations: ten beyond the 90th percentile.
P90_MIN_SAMPLES = 100

#: (key in a run's detail, unit, better, bound, bound is absolute).  The plans
#: are deterministic per seed, so ``fr_after`` may move by rounding only.
QUALITY = (
    ("quality.fr_after", "ratio", "lower", 0.002, True),
    ("quality.within_limit_ratio", "ratio", "higher", 0.02, True),
    ("quality.op_p90_ms", "ms", "lower", 0.25, False),
)

BAD = ("regressed", "missing", "failed")


def summarize(values: List[float]) -> dict:
    middle = median(values)
    return {"median": middle, "spread": (max(values) - min(values)) / middle if middle else 0.0}


def verdict(a: dict, b: dict, better: str, bound: float, absolute: bool = False):
    """``(amount by which the candidate is worse, verdict)``; the amount, the
    spread and the bound are shares of the base's median unless ``absolute``."""
    scale = 1.0 if absolute else a["median"]
    worse = (b["median"] - a["median"] if better == "lower" else a["median"] - b["median"]) / scale
    spread = max(a["spread"] * a["median"], b["spread"] * b["median"]) / scale
    if worse > bound and worse > spread:
        return worse, "regressed"
    if spread > bound:
        return worse, "unresolved"
    return worse, "ok"


def quality_rows(entry: dict) -> dict:
    """``{name: summary}`` of the quality values every run of ``entry`` has."""
    runs = entry.get("runs", [])
    rows = {}
    for name, *_ in QUALITY:
        values = [run.get(name) for run in runs]
        if not values or any(v is None for v in values):
            continue
        if name == "quality.op_p90_ms" and min(run["ok"] for run in runs) < P90_MIN_SAMPLES:
            continue
        rows[name] = summarize(values)
    return rows


def judged(workload, metric, unit, better, bound, absolute, a, b) -> dict:
    """One row; ``b`` is ``None`` when the candidate lacks what the base has."""
    worse, status = (None, "missing") if b is None else verdict(a, b, better, bound, absolute)
    return {
        "workload": workload, "metric": metric, "unit": unit, "better": better,
        "base": a["median"], "candidate": b and b["median"],
        "ratio": b["median"] / a["median"] if b and a["median"] else None,
        "worse_by": worse, "bound": bound, "absolute": absolute,
        "spread": b and max(a["spread"], b["spread"]), "verdict": status,
    }


def compare(base: dict, candidate: dict) -> List[dict]:
    same_seed = base["environment"]["seed"] == candidate["environment"]["seed"]
    rows = []
    for name, entry in base["workloads"].items():
        other = candidate["workloads"].get(name, {})
        # Failed operations and crashed runs: any at all is a broken candidate.
        broken = other.get("failed", 0) + len(other.get("errors", [])) if other else None
        failed = judged(
            name, "failed_or_crashed", "count", "lower", 0, True,
            {"median": entry.get("failed", 0) + len(entry.get("errors", [])), "spread": 0.0},
            None if broken is None else {"median": broken, "spread": 0.0},
        )
        if broken:
            failed["verdict"] = "failed"
        rows.append(failed)
        for metric, a in entry["end_to_end"].items():
            b = other.get("end_to_end", {}).get(metric)
            rows.append(judged(name, metric, a["unit"], a["better"], a["bound"], False, a, b))
        ours, theirs = quality_rows(entry), quality_rows(other)
        for metric, unit, better, bound, absolute in QUALITY:
            if metric not in ours:
                continue
            found = judged(name, metric, unit, better, bound, absolute, ours[metric], theirs.get(metric))
            if metric == "quality.fr_after" and not same_seed and found["verdict"] == "regressed":
                found["verdict"] = "unresolved"  # another seed is another cluster
            rows.append(found)
    return rows


def number(value, width: int) -> str:
    return f"{'-':>{width}s}" if value is None else f"{value:{width}.5g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    candidate = json.loads(args.candidate.read_text())
    for side, payload in (("base", base), ("candidate", candidate)):
        env = payload["environment"]
        print(f"{side:9s} commit {env['commit'][:12]} seed {env['seed']} "
              f"{env['runs']} runs of {env['seconds']}s, cpu_count {env['cpu_count']}")
    rows = compare(base, candidate)
    print(f"\n{'workload':24s} {'metric':26s} {'base':>12s} {'candidate':>12s} "
          f"{'B/A (base A)':>22s} {'bound':>10s} {'spread':>7s} verdict")
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f} of {r['base']:.5g} {r['unit']}"
        bound = f"{r['bound']:.3g}" + (" abs" if r["absolute"] else "")
        print(f"{r['workload']:24s} {r['metric']:26s} {number(r['base'], 12)} "
              f"{number(r['candidate'], 12)} {ratio:>22s} {bound:>10s} "
              f"{number(r['spread'], 7)} {r['verdict']}")
    counts = {status: sum(r["verdict"] == status for r in rows)
              for status in BAD + ("unresolved",)}
    print(f"\n{len(rows)} rows: " + ", ".join(f"{n} {status}" for status, n in counts.items()))
    return 1 if any(counts[status] for status in BAD) else 0


if __name__ == "__main__":
    raise SystemExit(main())
