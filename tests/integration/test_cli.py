"""Tests for the command-line interface (generate-dataset / train / evaluate / plan / serve /
simulate)."""

import json
from pathlib import Path

import pytest

from repro.cli import _build_backend, build_parser, main
from repro.core import VMR2LAgent, VMR2LConfig
from repro.datasets import load_mappings
from repro.serve import BrownoutConfig, PlanRequest, ReplicaFleet, ServiceConfig


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "dataset"
    exit_code = main(
        [
            "generate-dataset",
            "--output", str(root),
            "--preset", "small",
            "--num-pms", "6",
            "--num-mappings", "6",
            "--seed", "0",
        ]
    )
    assert exit_code == 0
    return root


@pytest.fixture(scope="module")
def checkpoint(dataset_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_ckpt") / "agent.npz"
    exit_code = main(
        [
            "train",
            "--dataset", str(dataset_dir),
            "--checkpoint", str(path),
            "--total-steps", "16",
            "--migration-limit", "4",
        ]
    )
    assert exit_code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_generate(self):
        args = build_parser().parse_args(["generate-dataset", "--output", "x"])
        assert args.command == "generate-dataset"
        assert args.preset == "small"


class TestGenerateDataset:
    def test_creates_split_files(self, dataset_dir):
        assert (dataset_dir / "metadata.json").exists()
        assert (dataset_dir / "train.jsonl").exists()
        assert (dataset_dir / "test.jsonl").exists()

    def test_workload_option(self, tmp_path, capsys):
        root = tmp_path / "low"
        main(
            [
                "generate-dataset",
                "--output", str(root),
                "--workload", "low",
                "--num-pms", "5",
                "--num-mappings", "4",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["num_pms"] == 5


class TestTrainEvaluatePlan:
    def test_train_writes_checkpoint(self, checkpoint):
        assert Path(checkpoint).exists()
        assert Path(checkpoint).stat().st_size < 2 * 1024 * 1024

    def test_train_uses_the_compact_recipe(self, dataset_dir, checkpoint, tmp_path):
        assert VMR2LAgent.load(checkpoint).config == VMR2LConfig.compact(4)
        # The model flags override the recipe's model fields; --seed sets ppo.seed.
        path = tmp_path / "agent.npz"
        main(["train", "--dataset", str(dataset_dir), "--checkpoint", str(path), "--total-steps", "16",
              "--migration-limit", "4", "--embed-dim", "8", "--num-blocks", "2", "--seed", "3"])
        expected = VMR2LConfig.compact(4, embed_dim=8, num_blocks=2)
        expected.ppo.seed = 3
        assert VMR2LAgent.load(path).config == expected

    def test_evaluate_with_baseline_and_checkpoint(self, dataset_dir, checkpoint, capsys):
        main(
            [
                "evaluate",
                "--dataset", str(dataset_dir),
                "--checkpoint", str(checkpoint),
                "--baselines", "ha",
                "--migration-limit", "4",
                "--max-mappings", "1",
                "--json",
            ]
        )
        rows = json.loads(capsys.readouterr().out)
        algorithms = {row["algorithm"] for row in rows}
        assert {"HA", "VMR2L"} <= algorithms
        for row in rows:
            assert 0.0 <= row["mean_fragment_rate"] <= 1.0

    def test_evaluate_rejects_unknown_baseline(self, dataset_dir):
        with pytest.raises(SystemExit):
            main(["evaluate", "--dataset", str(dataset_dir), "--baselines", "quantum"])

    def test_plan_on_single_mapping(self, dataset_dir, capsys):
        mapping_file = dataset_dir / "test.jsonl"
        main(
            [
                "plan",
                "--mapping", str(mapping_file),
                "--migration-limit", "4",
                "--json",
            ]
        )
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["algorithm"] == "HA"
        assert rows[0]["final_fragment_rate"] <= rows[0]["initial_fragment_rate"] + 1e-9

    def test_plan_visualize_text_output(self, dataset_dir, capsys):
        mapping_file = dataset_dir / "test.jsonl"
        main(["plan", "--mapping", str(mapping_file), "--migration-limit", "4", "--visualize"])
        output = capsys.readouterr().out
        assert "plan summary" in output

    def test_plan_with_explicit_planner(self, dataset_dir, capsys):
        mapping_file = dataset_dir / "test.jsonl"
        main(
            [
                "plan",
                "--mapping", str(mapping_file),
                "--planner", "vbpp",
                "--migration-limit", "4",
                "--json",
            ]
        )
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["algorithm"] == "alpha-VBPP"

    def test_evaluate_accepts_new_registry_keys(self, dataset_dir, capsys):
        main(
            [
                "evaluate",
                "--dataset", str(dataset_dir),
                "--baselines", "ha,vbpp,random",
                "--migration-limit", "4",
                "--max-mappings", "1",
                "--json",
            ]
        )
        rows = json.loads(capsys.readouterr().out)
        assert {row["algorithm"] for row in rows} == {"HA", "alpha-VBPP", "Random"}


class TestServe:
    def test_serve_once_from_request_file(self, dataset_dir, tmp_path, capsys):
        state = load_mappings(dataset_dir / "test.jsonl", limit=1)[0]
        request = PlanRequest.from_state(state, planner="ha", migration_limit=4)
        request_file = tmp_path / "request.json"
        request_file.write_text(request.to_json())
        exit_code = main(
            ["serve", "--once", "--request", str(request_file), "--fast-only", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["planner"] == "HA"
        assert payload["request_id"] == request.request_id
        assert payload["metrics"]["latency_ms"] >= 0.0

    def test_serve_once_with_checkpoint(self, dataset_dir, checkpoint, tmp_path, capsys):
        state = load_mappings(dataset_dir / "test.jsonl", limit=1)[0]
        request = PlanRequest.from_state(state, planner="rl", migration_limit=4)
        request_file = tmp_path / "request.json"
        request_file.write_text(request.to_json())
        main(
            [
                "serve", "--once",
                "--request", str(request_file),
                "--checkpoint", str(checkpoint),
                "--fast-only", "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["planner"] == "VMR2L"
        assert payload["num_migrations"] <= 4

    def test_serve_once_reports_structured_errors(self, dataset_dir, tmp_path, capsys):
        state = load_mappings(dataset_dir / "test.jsonl", limit=1)[0]
        request = PlanRequest.from_state(state, planner="quantum")
        request_file = tmp_path / "request.json"
        request_file.write_text(request.to_json())
        main(["serve", "--once", "--request", str(request_file), "--fast-only", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["code"] == "unknown_planner"


class TestServeFlags:
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--fallback-planner", "ha"], "needs --brownout"),
            (["--once", "--brownout"], "no load to read"),
        ],
        ids=["fallback-without-brownout", "once-with-brownout"],
    )
    def test_bad_combinations_are_usage_errors(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--fast-only", *flags])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_brownout_alone_builds_a_one_replica_fleet_without_replica_ladders(self):
        backend = _build_backend(build_parser().parse_args(["serve", "--brownout", "--fast-only"]))
        assert isinstance(backend, ReplicaFleet)
        assert backend.config.num_replicas == 1
        assert backend.config.brownout == BrownoutConfig()
        assert backend.service_config == ServiceConfig(max_batch_size=8)
        assert not hasattr(backend.service_config, "brownout")

    def test_an_unknown_fallback_planner_fails_fleet_start(self):
        argv = ["serve", "--brownout", "--fallback-planner", "quantum", "--fast-only",
                "--start-method", "fork", "--port", "0"]
        with pytest.raises(RuntimeError, match="fallback planner 'quantum' is not one of"):
            main(argv)


def _simulate(capsys, *extra):
    main(["simulate", "--seed", "3", "--max-rounds", "3", "--fast-only", "--json", *extra])
    return json.loads(capsys.readouterr().out)


def _without_wall_clock(report):
    """The report minus per-round planner latency."""
    rounds = [{k: v for k, v in row.items() if k != "planner_ms"} for row in report["rounds"]]
    return {**report, "rounds": rounds}


class TestSimulate:
    def test_recorded_trace_replays_to_the_same_report(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        recorded = _simulate(capsys, "--record-trace", str(trace))
        replayed = _simulate(capsys, "--trace", str(trace))
        assert recorded["num_rounds"] == 3
        assert recorded["failed_rounds"] == 0
        assert _without_wall_clock(replayed) == _without_wall_clock(recorded)

    def test_unknown_planner_exits(self):
        with pytest.raises(SystemExit, match="unknown planner"):
            main(["simulate", "--planner", "quantum", "--fast-only", "--max-rounds", "1"])
