"""Smoke-run the paper's experiment table and pin its agent memo key.

Loads ``benchmarks/paper.py`` by path, runs every row at smoke size and
checks the payload's shape; the verdicts at smoke size mean nothing, so only
their presence is asserted.
The claim predicates are checked on hand-made numbers instead.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import FilteringHeuristic, evaluate_plan
from repro.env import MigrationMinimizationObjective

PAPER_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "paper.py"

ROW_IDS = {
    "fig04", "fig05", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig16",
    "fig17", "fig18", "fig19", "fig20", "fig21", "table2", "table3", "table4", "table5",
    "churn",
}


def _load_paper_module():
    """A fresh module per call, so each test starts with an empty agent memo."""
    spec = importlib.util.spec_from_file_location("paper", PAPER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def paper():
    return _load_paper_module()


@pytest.fixture(scope="module")
def smoke_payload(paper, tmp_path_factory):
    """One smoke run of every row, shared by the checks below."""
    output = tmp_path_factory.mktemp("paper") / "BENCH_paper.json"
    paper.run(smoke=True, output=output)
    return json.loads(output.read_text())


def test_paper_table_smoke(paper, smoke_payload):
    assert set(paper.ROWS) == ROW_IDS
    assert smoke_payload["smoke"] is True
    assert smoke_payload["environment"]["cpu_count"] >= 1
    assert set(smoke_payload["rows"]) == ROW_IDS


@pytest.mark.parametrize("row_id", sorted(ROW_IDS))
def test_paper_row_smoke(smoke_payload, row_id):
    row = smoke_payload["rows"][row_id]
    assert row["verdict"] in ("reproduced", "not_reproduced")
    assert row["checks"] and row["claim"] and row["planners"] and row["mnl"]
    assert row["verdict"] == ("reproduced" if all(row["checks"].values()) else "not_reproduced")
    assert row["wall_s"] > 0
    assert row["numbers"]
    assert row["sizes"]
    for size in row["sizes"].values():
        assert size["pms"] > 0 and size["vms"] > 0


def test_fig09_claim_needs_vmr2l_strictly_below_ha(paper):
    def numbers(vmr2l):
        r = {name: {"fr": [0.15], "s": [0.1]} for name in paper.FIG09}
        r["MIP"]["fr"], r["VMR2L"]["fr"] = [0.10], [vmr2l]
        return r

    holds = paper.ROWS["fig09"].holds
    assert all(holds(numbers(0.12)).values())
    assert not holds(numbers(0.15))["vmr2l_lt_ha"]
    assert not holds(numbers(0.09))["mip_le_all"]


def test_fig16_claim_is_within_one_percent(paper):
    holds = paper.ROWS["fig16"].holds
    assert holds({"generalist": [0.2, 0.2], "per_mnl": [0.2, 0.199]})["generalist_within_1pct"]
    assert not holds({"generalist": [0.21, 0.21], "per_mnl": [0.2, 0.2]})["generalist_within_1pct"]
    assert holds({"generalist": [0.0], "per_mnl": [0.0]})["generalist_within_1pct"]


def test_fig14_claim(paper):
    r = {"goal": [0.2, 0.1], "HA": [[1, 0.2], [2, 0.1]], "VMR2L": [[1, 0.15], [2, 0.1]]}
    assert all(paper.holds_fig14(r).values())
    r["VMR2L"] = [[2, 0.15], [1, 0.1]]  # more migrations for the looser goal
    checks = paper.holds_fig14(r)
    assert not checks["vmr2l_monotone_in_goal"]
    assert not checks["vmr2l_meets_ha_goals_with_no_more_migrations"]


def test_fig21_claim_needs_a_sacrifice(paper):
    r = {"initial": 0.25, "reward": [-0.05, 0.2], "fr_after": [0.3, 0.1]}
    assert all(paper.holds_fig21(r).values())
    greedy = {**r, "reward": [0.1, 0.2]}
    assert not paper.holds_fig21(greedy)["gives_up_reward_for_a_later_gain"]
    assert paper.holds_fig21({"initial": 0.25, "reward": [], "fr_after": []}) == {
        "lowers_fr": False, "gives_up_reward_for_a_later_gain": False}


def test_churn_claim_compares_steady_state_fr(paper):
    def numbers(vmr2l, ha=0.05, random=0.08):
        return {"vmr2l": {"steady_fr": vmr2l}, "ha": {"steady_fr": ha}, "vbpp": {"steady_fr": 0.2},
                "random": {"steady_fr": random}}

    holds = paper.ROWS["churn"].holds
    assert all(holds(numbers(0.05)).values())  # a tie with HA holds
    assert holds(numbers(0.06)) == {"vmr2l_le_ha": False, "vmr2l_lt_random": True}
    assert holds(numbers(0.08, ha=0.1)) == {"vmr2l_le_ha": True, "vmr2l_lt_random": False}


def test_fragment_rate_outside_unit_interval_stops_the_run(paper):
    assert paper.fr(0.25) == 0.25
    with pytest.raises(AssertionError):
        paper.fr(1.5)


def test_sweep_mnls(paper):
    assert paper.sweep_mnls(10, 5) == [2, 4, 6, 8, 10]
    assert paper.sweep_mnls(4, 5) == [1, 2, 3, 4]


def test_reach_stops_once_the_goal_is_met(paper):
    state = paper.snapshots(paper.SMOKE, paper.medium(paper.SMOKE))[0]
    result = FilteringHeuristic().compute_plan(state, 3)
    assert len(result.plan) > 0
    assert paper.reach(result.plan, state, goal=1.0) == [0, pytest.approx(state.fragment_rate())]
    final = evaluate_plan(state, result).final_objective
    assert paper.reach(result.plan, state, goal=-1.0) == [len(result.plan), pytest.approx(final)]


def test_runner_rejects_unknown_row_ids(paper, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "argv", ["paper", "--output", str(tmp_path / "out.json"), "fig99"])
    with pytest.raises(SystemExit):
        paper.main()
    assert not (tmp_path / "out.json").exists()


def test_agent_memo_keys_on_objective_parameters():
    """Agents for two FR goals are two agents, each trained for its own goal
    (a key naming only the objective's kind would hand goal 2 goal 1's agent)."""
    paper = _load_paper_module()
    scale = paper.Scale(medium_pms=4, large_pms=4, mnl=3, steps=128, mip_s=5.0, train=1, test=1)
    spec = paper.medium(scale)
    loose = paper.agent([spec], scale.mnl, scale, MigrationMinimizationObjective(fr_goal=0.9))
    tight = paper.agent([spec], scale.mnl, scale, MigrationMinimizationObjective(fr_goal=0.0))
    assert loose is not tight
    assert loose.objective.fr_goal == 0.9 and tight.objective.fr_goal == 0.0
    assert loose.training_history and tight.training_history
    assert any(
        not np.array_equal(a.data, b.data)
        for a, b in zip(loose.policy.parameters(), tight.policy.parameters())
    )
    # An equal objective is the same key: the agent is trained once per process.
    assert paper.agent([spec], scale.mnl, scale, MigrationMinimizationObjective(fr_goal=0.9)) is loose
