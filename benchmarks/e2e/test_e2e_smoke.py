"""Self-test of the benchmark, collected by the tier-1 command.

Every workload runs one tiny pass; every metric ``BENCHMARK.json`` names is
printed with its unit; and the correctness checker is itself tested.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.e2e import compare, probes, spec  # noqa: E402
from benchmarks.e2e.checks import check_reply  # noqa: E402
from benchmarks.e2e.harness import run_once  # noqa: E402
from benchmarks.e2e.inputs import make_cluster, make_requests  # noqa: E402
from benchmarks.e2e.spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_names_what_the_code_measures():
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == [w.name for w in spec.WORKLOADS]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == list(spec.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == list(spec.PER_LAYER)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)


def assert_result(result, table):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [row[0] for row in table]
    for row in table:
        metric = result["metrics"][row[0]]
        assert metric["unit"] == row[1]
        assert math.isfinite(metric["value"])


@pytest.mark.parametrize("name", [w.name for w in spec.WORKLOADS])
def test_every_workload_runs_one_tiny_pass(name):
    result, detail = run_once(name, seed=0, seconds=0.2, trace=False, smoke=True)
    assert_result(result, spec.END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert detail["sent"] == result["attempted"] and detail["fail_reasons"] == {}


def test_traced_run_reports_every_per_layer_metric():
    result, detail = run_once("small_ha_http_seq", seed=0, seconds=0.4, trace=True, smoke=True)
    assert_result(result, spec.PER_LAYER)
    assert detail["probes_skipped"] == []
    assert all(m["value"] != spec.SKIPPED for m in result["metrics"].values())
    trace = json.loads((ROOT / detail["trace_file"]).read_text())
    names = {span["name"] for span in trace["spans"]}
    assert {"http.client.plan", "fleet.plan", "service.handle", "episode", "env.step"} <= names
    # The ladder's self times add up to the client-side latency by construction.
    ladder = detail["ladder_p50_ms"]
    metrics = result["metrics"]
    total = (
        metrics["http.self_ms"]["value"]
        + metrics["fleet.self_ms"]["value"]
        + metrics["service.seq_latency_ms"]["value"]
    )
    assert total == pytest.approx(ladder["http.client.plan"])


def test_single_run_command_ends_with_one_result_line():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--workload",
         "small_rl_service_win8", "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert_result(json.loads(done.stdout.strip().splitlines()[-1]), spec.END_TO_END)


def test_single_run_exits_non_zero_when_an_operation_failed(monkeypatch, capsys):
    import argparse

    from benchmarks.e2e import harness, run

    def one_failed(*args):
        result = {"correct": False, "attempted": 5, "failed": 1, "metrics": {}}
        return result, {"failed": 1}

    monkeypatch.setattr(harness, "run_once", one_failed)
    args = argparse.Namespace(workload="w", seed=0, seconds=1.0, trace=0, smoke=True)
    assert run.run_single(args) == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["failed"] == 1


@pytest.fixture(scope="module")
def answered():
    """A valid request/reply pair to corrupt."""
    from repro.serve import ReschedulingService, build_default_registry

    base = make_cluster(spec.SMOKE_SIZES["small"], seed=0)
    request = make_requests(base, 1, "ha", 2, seed=0, label="check")[0]
    reply = ReschedulingService(build_default_registry(include_slow=False)).handle(request)
    assert check_reply(request, reply)[0] is None and reply.migrations
    return request, reply


def test_checker_counts_each_kind_of_bad_reply(answered):
    from repro.serve import PlanError

    request, reply = answered
    step = reply.migrations[0]
    source = next(
        vm["pm_id"] for vm in request.snapshot["vms"] if vm["vm_id"] == step["vm_id"]
    )
    to_own_pm = dict(step, dest_pm_id=source, dest_numa_id=None)
    bad = {
        "infeasible_migration": dataclasses.replace(reply, migrations=[to_own_pm]),
        "over_migration_limit": dataclasses.replace(reply, migrations=[step] * 3),
        "partial": dataclasses.replace(reply, partial=True),
        "final_objective_mismatch": dataclasses.replace(
            reply, final_objective=reply.final_objective + 0.01
        ),
        "error:service_unavailable": PlanError(request.request_id, "service_unavailable", "shed"),
    }
    for reason, corrupted in bad.items():
        assert check_reply(request, corrupted)[0] == reason


def test_missing_probe_entry_point_is_skipped_not_fatal(monkeypatch):
    def probe_schemas(ctx):
        raise ImportError("cannot import name 'response_from_dict'")

    names = ("schemas.encode_request_ms", "schemas.decode_request_ms")
    monkeypatch.setattr(probes, "PROBES", ((probe_schemas, names),))
    ctx = probes.ProbeContext(
        tracer=Tracer(), workload=spec.WORKLOADS[0], size=spec.SMOKE_SIZES["small"], seed=0,
        smoke=True, base=None, requests=[], replies=[], small_states=[],
    )
    metrics, skipped = probes.run_probes(ctx)
    assert metrics == {name: spec.SKIPPED for name in names}
    assert len(skipped) == 1 and "response_from_dict" in skipped[0]


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["parent", 0.0, 10.0, None, None], ["child", 2.0, 5.0, 0, None],
                    ["child", 4.0, 7.0, 0, None]]
    assert tracer.self_seconds() == [5.0, 3.0, 3.0]


def result_file(p50=10.0, spread=0.02, fr_after=0.30, failed=0, errors=()):
    row = {"median": p50, "spread": spread, "values": [p50], "unit": "ms",
           "better": "lower", "bound": 0.10}
    env = {"commit": "c", "seed": 0, "runs": 3, "seconds": 10, "cpu_count": 2}
    runs = [{"ok": 200, "quality.fr_after": fr_after, "quality.within_limit_ratio": 1.0,
               "quality.op_p90_ms": 2 * p50}] * 3
    entry = {"end_to_end": {"op_p50_ms": row}, "runs": runs, "failed": failed,
             "errors": list(errors)}
    return {"environment": env, "workloads": {"w": entry}}


def verdicts(a, b):
    return {row["metric"]: row["verdict"] for row in compare.compare(a, b)}


def test_compare_tells_regressed_from_unresolved():
    assert set(verdicts(result_file(), result_file(10.5)).values()) == {"ok"}
    assert verdicts(result_file(), result_file(12.0))["op_p50_ms"] == "regressed"
    assert verdicts(result_file(spread=0.30), result_file(10.5))["op_p50_ms"] == "unresolved"


def test_compare_does_not_pass_a_broken_or_worse_planning_candidate():
    # Every run of the workload crashed: no metrics, only errors.
    crashed = result_file(errors=["boom"] * 3)
    crashed["workloads"]["w"].update(end_to_end={}, runs=[])
    found = verdicts(result_file(), crashed)
    assert found["failed_or_crashed"] == "failed" and found["op_p50_ms"] == "missing"
    assert found["quality.fr_after"] == "missing"
    gone = verdicts(result_file(), {**result_file(), "workloads": {}})
    assert set(gone.values()) == {"missing"} and "op_p50_ms" in gone
    assert verdicts(result_file(), result_file(failed=1))["failed_or_crashed"] == "failed"
    # Faster by returning worse plans that still replay.
    found = verdicts(result_file(), result_file(8.0, fr_after=0.31))
    assert found["op_p50_ms"] == "ok" and found["quality.fr_after"] == "regressed"
    for bad in (crashed, result_file(failed=1), result_file(fr_after=0.31)):
        assert any(row["verdict"] in compare.BAD for row in compare.compare(result_file(), bad))
