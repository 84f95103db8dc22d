"""Smoke-run the hot-path benchmark so regressions surface in tier-1 CI.

Runs ``benchmarks/bench_perf_hotpaths.py`` in smoke mode (tiny cluster, few
repeats) and checks the payload shape; absolute timings are hardware-dependent
so only structural properties are asserted here.
"""

import importlib.util
import sys
from pathlib import Path

BENCH_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_perf_hotpaths.py"


def _load_bench_module():
    spec = importlib.util.spec_from_file_location("bench_perf_hotpaths", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_bench_perf_hotpaths_smoke(tmp_path):
    bench = _load_bench_module()
    output = tmp_path / "BENCH_perf_hotpaths.json"
    payload = bench.run(smoke=True, output=output)
    assert output.exists()
    assert payload["smoke"] is True
    results = payload["results"]
    for name in ("ppo_rollout_epoch", "rollout_cached_steps"):
        entry = results[name]
        assert entry["legacy_s"] > 0
        assert entry["vectorized_s"] > 0
        assert entry["speedup"] > 0
    # Paths with one implementation left report an absolute time only
    # (attention is one kernel, grad-tracking or not; the loop masks and
    # featurization are oracles in tests/oracles.py, whose speed is checked
    # in tests/cluster/test_soa_parity.py).
    for name in (
        "destination_mask",
        "movable_vm_mask",
        "observation_build",
        "cluster_state_copy",
        "act_single_sparse",
        "vm_attention_large",
        "vm_attention_large_grad",
        "act_large_inference",
        "rollout_epoch_sync_inference",
        "ppo_update_epoch",
    ):
        assert results[name]["seconds"] > 0
        assert "legacy_s" not in results[name]
