"""The paper's §5 figures and tables as one experiment table.

Each row is one figure or table: its clusters, planners and MNL (migration
number limit) sweep, a run returning plain numbers, and the paper's claim as a
predicate over them; ``BENCH_paper.json`` gets each row's sizes, wall time,
numbers and verdict (``reproduced`` iff every part of the claim holds).  What
holds for any policy (MIP ≤ HA, best-of-K non-increasing in K, FR in [0, 1],
...) is asserted instead and stops the run.  Clusters are scaled down (10 and
24 PMs, MNL 10) and agents train for 768 PPO steps on a CPU; ``--smoke`` shrinks
it all to check the table's shape in seconds (its verdicts mean nothing).  One
more row, ``churn``, runs the Medium agent online: it replans a living cluster
(``repro.sim``) through the serving path for simulated days.

Run:  PYTHONPATH=src python -m benchmarks.paper [--smoke] [--output PATH] [ROW_ID ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import achieved_fr_vs_delay, potential_fr_ratio, relative_gap, trace_plan
from repro.baselines import (AlphaVBPP, FilteringHeuristic, MCTSRescheduler, MIPRescheduler,
                              NeuPlanRescheduler, POPRescheduler, evaluate_plan)
from repro.cluster import ClusterState, ConstraintConfig, assign_anti_affinity_groups
from repro.core import (RiskSeekingConfig, VMR2LAgent, VMR2LConfig, risk_seeking_evaluate,
                        vm_selection_probability_histogram)
from repro.datasets import ClusterSpec, SnapshotGenerator, multi_resource_spec, spec_for_workload
from repro.env import (FragmentRateObjective, MigrationMinimizationObjective, MixedFragmentObjective,
                       MixedResourceObjective, Objective)
from repro.serve import ReschedulingService, build_default_registry
from repro.sim import ChurnSpec, LivingCluster, OnlineRescheduler, SimulationConfig, SyntheticTrace

REPO = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Scale:
    """Cluster sizes, MNL and budgets of one run of the table."""
    medium_pms: int  # the Medium (high-workload) analogue
    large_pms: int  # the Large analogue
    mnl: int  # the default migration number limit
    steps: int  # PPO environment steps per trained agent
    mip_s: float  # MIP time limit
    train: int  # training snapshots per cluster (seed 0)
    test: int  # held-out snapshots per cluster (seed 1)
    churn_days: float = 3.0  # simulated horizon of the churn row


FULL = Scale(medium_pms=10, large_pms=24, mnl=10, steps=768, mip_s=60.0, train=4, test=4)
SMOKE = Scale(medium_pms=4, large_pms=6, mnl=4, steps=128, mip_s=5.0, train=2, test=1, churn_days=0.25)


def medium(s: Scale, num_pms: Optional[int] = None) -> ClusterSpec:
    num_pms = num_pms or s.medium_pms
    return ClusterSpec(name=f"bench-medium-{num_pms}", num_pms=num_pms, target_utilization=0.78, best_fit_fraction=0.3)


def large(s: Scale) -> ClusterSpec:
    return ClusterSpec(name="bench-large", num_pms=s.large_pms, target_utilization=0.70, best_fit_fraction=0.3)


def multi(s: Scale) -> ClusterSpec:
    return multi_resource_spec(num_pms=s.medium_pms, target_utilization=0.72)


def snapshots(s: Scale, spec: ClusterSpec, test: bool = True) -> List[ClusterState]:
    """The held-out snapshots of ``spec`` (seed 1), or with ``test=False`` the training ones (seed 0)."""
    return SnapshotGenerator(spec, seed=int(test)).generate_many(s.test if test else s.train)


def sweep_mnls(maximum: int, points: int) -> List[int]:
    """``points`` MNLs evenly up to ``maximum`` (the x-axis of Figs. 4, 9 and 16)."""
    return sorted({max(maximum * i // points, 1) for i in range(1, points + 1)})


def train_agent(states: Sequence[ClusterState], mnl: int, steps: int, objective: Optional[Objective] = None,
                eval_states: Sequence[ClusterState] = (), **model) -> VMR2LAgent:
    """A fresh agent trained with PPO on ``states``; given ``eval_states``, its
    ``training_history`` holds the greedy test objective after every update."""
    sized = list(states) + list(eval_states)
    mlp = model.get("extractor") == "mlp"  # the flat MLP's input is sized to the cluster
    agent = VMR2LAgent(VMR2LConfig.compact(mnl, **model), objective, ConstraintConfig(migration_limit=mnl),
                       max_pms=max(state.num_pms for state in sized) if mlp else None,
                       max_vms=max(state.num_vms for state in sized) + 32 if mlp else None)
    agent.train_on_states(states, total_steps=steps, eval_states=list(eval_states) or None)
    return agent


_AGENTS: Dict[tuple, VMR2LAgent] = {}


def agent(specs: Sequence[ClusterSpec], mnl: int, s: Scale, objective: Optional[Objective] = None, **model):
    """The agent trained on each spec's training snapshots, trained once per process and keyed on
    everything that changes training: specs, snapshot count, MNL, the objective with its parameters,
    model overrides and step budget.  Each call restarts the agent's planning stream, so a row's
    numbers do not depend on which rows ran before it."""
    objective = objective or FragmentRateObjective()
    key = (tuple(map(repr, specs)), s.train, mnl, repr(objective), tuple(sorted(model.items())), s.steps)
    if key not in _AGENTS:
        states = [state for spec in specs for state in snapshots(s, spec, test=False)]
        _AGENTS[key] = train_agent(states, mnl, s.steps, objective, **model)
    trained = _AGENTS[key]
    trained.rng = np.random.default_rng(trained.seed)
    return trained


def planner(name: str, s: Scale, spec: ClusterSpec, mnl: int):
    """One planner of the §5.1 line-up; VMR2L is the agent trained on ``spec`` at ``mnl``."""
    return {
        "HA": FilteringHeuristic,
        "α-VBPP": lambda: AlphaVBPP(alpha=max(s.mnl // 5, 2)),
        "POP": lambda: POPRescheduler(num_partitions=2 if spec.num_pms <= 12 else 4, time_limit_s=10.0),
        "MCTS": lambda: MCTSRescheduler(iterations_per_step=8, candidate_actions=6, rollout_depth=3),
        "NeuPlan": lambda: NeuPlanRescheduler(relax_factor=20, time_limit_s=10.0),
        "MIP": lambda: MIPRescheduler(time_limit_s=s.mip_s),
        "VMR2L": lambda: agent([spec], mnl, s),
    }[name]()


def fr(value: float) -> float:
    assert 0.0 <= value <= 1.0, f"fragment rate {value} outside [0, 1]"
    return float(value)


def evaluate(chosen, states, mnl: int, objective: Optional[Objective] = None) -> Tuple[float, float]:
    """Mean final objective of a planner over ``states``, and its slowest plan time."""
    runs = [evaluate_plan(state, chosen.compute_plan(state, mnl), objective) for state in states]
    return fr(np.mean([run.final_objective for run in runs])), max(run.inference_seconds for run in runs)


def initial(states, objective: Optional[Objective] = None) -> float:
    objective = objective or FragmentRateObjective()
    return fr(np.mean([objective.episode_metric(state) for state in states]))


def le(a: Sequence[float], b: Sequence[float]) -> bool:
    return all(x <= y + 1e-9 for x, y in zip(a, b))


def lt(a: Sequence[float], b: Sequence[float]) -> bool:
    return all(x < y for x, y in zip(a, b))


def non_increasing(values: Sequence[float]) -> bool:
    return le(values[1:], values[:-1])


@dataclass(frozen=True)
class Row:
    """One figure or table: its clusters, planners, MNL sweep, run and claim."""
    id: str
    claim: str  # the paper's claim, in words
    specs: Callable[[Scale], Dict[str, ClusterSpec]]  # the clusters, by label
    planners: Tuple[str, ...]
    mnls: Callable[[Scale], List[int]]
    holds: Callable[[dict], Dict[str, bool]]  # each part of the claim, over the numbers
    run: Callable[["Row", Scale], dict]  # plain numbers; asserts what holds for any policy


ROWS: Dict[str, Row] = {}


def row(id, claim, specs, planners, mnls, holds, run=None):
    """Register a row; without ``run``, decorate the function that runs it."""
    def register(run):
        ROWS[id] = Row(id, claim, specs, planners, mnls, holds, run)
        return run
    return register(run) if run else register


def sweep(row: Row, s: Scale) -> dict:
    """Every planner at every MNL on each cluster's held-out snapshots."""
    mnls, out = row.mnls(s), {}
    for label, spec in row.specs(s).items():
        states = snapshots(s, spec)
        out[label] = {"initial": initial(states), "mnl": mnls}
        for name in row.planners:
            chosen = planner(name, s, spec, max(mnls))
            cells = [evaluate(chosen, states, mnl) for mnl in mnls]
            out[label][name] = {"fr": [cell[0] for cell in cells], "s": [cell[1] for cell in cells]}
    return out


def curves(s: Scale, spec: ClusterSpec, variants: Dict[str, dict]) -> dict:
    """Greedy test FR after every PPO update, for agents differing only in ``variants``."""
    train, test = snapshots(s, spec, test=False), snapshots(s, spec)
    out = {"initial": initial(test)}
    for name, model in variants.items():
        trained = train_agent(train, s.mnl, s.steps // 2, eval_states=test, **model)
        out[name] = [fr(entry.eval_metric) for entry in trained.training_history]
    return out


MEDIUM = lambda s: {"medium": medium(s)}  # noqa: E731
AT_MNL = lambda s: [s.mnl]  # noqa: E731
FIG09 = ("HA", "α-VBPP", "POP", "MCTS", "NeuPlan", "MIP", "VMR2L")
SIZE_FACTORS = [0.7, 0.9, 1.0, 1.1, 1.3]


@row("fig04", "MIP's FR ≤ HA's at every MNL, and HA plans within 5 s",
     MEDIUM, ("HA", "MIP"), lambda s: sweep_mnls(s.mnl, 5),
     lambda r: {"mip_le_ha": le(r["MIP"]["fr"], r["HA"]["fr"]), "ha_under_5s": max(r["HA"]["s"]) < 5.0})
def fig04(row, s):
    r = sweep(row, s)["medium"]
    assert le(r["MIP"]["fr"], r["HA"]["fr"]), "MIP worse than HA"
    assert max(r["HA"]["s"]) < 5.0, "HA over the 5 s budget"
    return r


@row("fig05", "a plan applied after T s of churn keeps ≥ 90% of its best FR reduction up to 5 s, "
     "and less by 3000 s", MEDIUM, ("MIP",), AT_MNL,
     lambda r: {"within_10pct_up_to_5s": all(x >= 0.9 * max(r["fr_reduction"])
                                             for d, x in zip(r["delay_s"], r["fr_reduction"]) if d <= 5.0),
                "decayed_by_3000s": r["fr_reduction"][-1] < 0.9 * max(r["fr_reduction"])})
def fig05(row, s):
    state = snapshots(s, medium(s))[0]
    plan = MIPRescheduler(time_limit_s=s.mip_s).compute_plan(state, s.mnl).plan
    delays = [0.0, 1.0, 5.0, 30.0, 120.0, 600.0, 3000.0]
    outcomes = achieved_fr_vs_delay(state, plan, delays, changes_per_minute=60.0, seed=0, num_replicas=3)
    r = {"delay_s": delays, "fr_reduction": [o.fr_reduction for o in outcomes],
         "stale_fraction": [o.stale_fraction for o in outcomes]}
    assert r["fr_reduction"][-1] <= r["fr_reduction"][0] + 1e-9, "a stale plan beat a fresh one"
    assert non_increasing([-x for x in r["stale_fraction"]]), "fewer stale actions after a longer delay"
    return r


row("fig09", "MIP ≤ every method, and MIP ≤ VMR2L < HA ≈ α-VBPP (within 10%) at every MNL, "
    "with VMR2L planning within 5 s", MEDIUM, FIG09, lambda s: sweep_mnls(s.mnl, 3),
    lambda r: {"mip_le_all": all(le(r["MIP"]["fr"], r[name]["fr"]) for name in FIG09),
               "vmr2l_lt_ha": lt(r["VMR2L"]["fr"], r["HA"]["fr"]),
               "ha_approx_vbpp": all(abs(h - v) <= 0.1 * max(h, v) for h, v in zip(r["HA"]["fr"], r["α-VBPP"]["fr"])),
               "vmr2l_under_5s": max(r["VMR2L"]["s"]) < 5.0},
    lambda row, s: sweep(row, s)["medium"])


row("fig10", "sparse attention ≤ vanilla attention ≤ the flat MLP, in final test FR",
    MEDIUM, ("VMR2L",), AT_MNL,
    lambda r: {"sparse_le_vanilla": r["sparse"][-1] <= r["vanilla"][-1],
               "vanilla_le_mlp": r["vanilla"][-1] <= r["mlp"][-1]},
    lambda row, s: curves(s, medium(s), {name: {"extractor": name} for name in ("sparse", "vanilla", "mlp")}))


@row("fig11", "fewer than 0.8% of the trained VM actor's selection probabilities exceed 1%",
     MEDIUM, ("VMR2L",), AT_MNL, lambda r: {"under_0.8pct_above_1pct": r["frac_above_1pct"] < 0.008})
def fig11(row, s):
    policy, states = agent([medium(s)], s.mnl, s).policy, snapshots(s, medium(s))
    probabilities = vm_selection_probability_histogram(policy, states, s.mnl)["probabilities"]
    assert probabilities.size > 0
    return {"num_probabilities": int(probabilities.size), "frac_above_1pct": float((probabilities > 0.01).mean()),
            "median": float(np.median(probabilities))}


@row("fig12", "best-of-K FR falls as K grows, and action thresholding lowers it further",
     MEDIUM, ("VMR2L",), AT_MNL,
     lambda r: {"more_k_lowers_fr": r["baseline"][-1] < r["baseline"][0],
                "threshold_le_baseline": r["threshold"][-1] <= r["baseline"][-1]})
def fig12(row, s):
    policy, states = agent([medium(s)], s.mnl, s).policy, snapshots(s, medium(s))
    r = {"k": [1, 2, 4, 8]}
    for variant, thresholded in (("baseline", False), ("threshold", True)):
        r[variant] = []
        for k in r["k"]:
            config = RiskSeekingConfig(k, vm_quantile=0.95, pm_quantile=0.95, use_thresholding=thresholded)
            best = [risk_seeking_evaluate(policy, state, s.mnl, config, seed=11).best for state in states]
            r[variant].append(fr(np.mean([trajectory.final_objective for trajectory in best])))
        assert non_increasing(r[variant]), f"best-of-K rose with K ({variant})"
    return r


@row("fig13", "two-stage masking ≤ the full joint mask and ≤ the illegal-action penalty, in final test FR",
     lambda s: {"medium": medium(s), "multi_resource": multi(s)}, ("VMR2L",), AT_MNL,
     lambda r: {f"{label}_two_stage_le_{mode}": c["two_stage"][-1] <= c[mode][-1]
                for label, c in r.items() for mode in ("full_joint", "penalty")})
def fig13(row, s):
    modes = {mode: {"action_mode": mode} for mode in ("two_stage", "penalty", "full_joint")}
    return {label: curves(s, spec, modes) for label, spec in row.specs(s).items()}


def reach(plan, state: ClusterState, goal: float) -> List[float]:
    """Apply ``plan`` until the FR goal is met: [migrations used, FR reached]."""
    working, used = state.copy(), 0
    for migration in plan:
        if working.fragment_rate() <= goal:
            break
        if working.can_host(migration.vm_id, migration.dest_pm_id, honor_affinity=True):
            working.migrate_vm(migration.vm_id, migration.dest_pm_id)
            used += 1
    return [used, fr(working.fragment_rate())]


def holds_fig14(r):
    met = lambda name, i: r[name][i][1] <= r["goal"][i] + 1e-9  # noqa: E731
    return {"vmr2l_monotone_in_goal": non_increasing([-used for used, _ in r["VMR2L"]]),
            "vmr2l_meets_ha_goals_with_no_more_migrations": all(
                met("VMR2L", i) and r["VMR2L"][i][0] <= r["HA"][i][0] for i in range(len(r["goal"])) if met("HA", i))}


@row("fig14", "an agent trained per FR goal needs no more migrations for a looser goal, and meets every "
     "goal HA meets with no more migrations than HA", MEDIUM, ("HA", "MIP", "VMR2L"), AT_MNL, holds_fig14)
def fig14(row, s):
    state = snapshots(s, medium(s))[0]
    goals = [round(state.fragment_rate() * factor, 4) for factor in (0.9, 0.75, 0.6, 0.45)]
    fixed = {name: planner(name, s, medium(s), s.mnl).compute_plan(state, s.mnl).plan for name in ("HA", "MIP")}
    r = {"initial": state.fragment_rate(), "goal": goals, "HA": [], "MIP": [], "VMR2L": []}
    for goal in goals:
        trained = agent([medium(s)], s.mnl, s, MigrationMinimizationObjective(fr_goal=goal))
        for name, plan in {**fixed, "VMR2L": trained.compute_plan(state, s.mnl).plan}.items():
            r[name].append(reach(plan, state, goal))
    for name in fixed:  # a fixed plan needs no fewer migrations for a tighter goal
        assert non_increasing([-used for used, _ in r[name]]), name
    return r


@row("fig16", "one agent trained at the largest MNL is within 1% of per-MNL agents (mean FR over the sweep)",
     MEDIUM, ("VMR2L",), lambda s: sweep_mnls(s.mnl, 3),
     lambda r: {"generalist_within_1pct": relative_gap(np.mean(r["generalist"]), np.mean(r["per_mnl"])) <= 0.01})
def fig16(row, s):
    states, mnls = snapshots(s, medium(s)), row.mnls(s)
    generalist = agent([medium(s)], max(mnls), s)
    return {"mnl": mnls, "generalist": [evaluate(generalist, states, mnl)[0] for mnl in mnls],
            "per_mnl": [evaluate(agent([medium(s)], mnl, s), states, mnl)[0] for mnl in mnls]}


@row("fig17", "on clusters within ±20% of the training size VMR2L realizes ≥ 95% of MIP's FR improvement, "
     "and at least POP's share at every size",
     lambda s: {f"{f - 1:+.0%}": medium(s, max(round(s.medium_pms * f), 3)) for f in SIZE_FACTORS},
     ("MIP", "POP", "VMR2L"), AT_MNL,
     lambda r: {"ge_95pct_within_20pct": all(v >= 0.95 for f, v in zip(SIZE_FACTORS, r["VMR2L"]) if abs(f - 1) < 0.25),
                "vmr2l_ge_pop": le(r["POP"], r["VMR2L"])})
def fig17(row, s):
    trained, r = agent([medium(s)], s.mnl, s), {"size_factor": SIZE_FACTORS, "VMR2L": [], "POP": []}
    for spec in row.specs(s).values():
        ratios = {"VMR2L": [], "POP": []}
        for state in snapshots(s, spec):
            best = evaluate(planner("MIP", s, spec, s.mnl), [state], s.mnl)[0]
            for name, chosen in (("VMR2L", trained), ("POP", planner("POP", s, spec, s.mnl))):
                achieved = evaluate(chosen, [state], s.mnl)[0]
                ratios[name].append(potential_fr_ratio(state.fragment_rate(), achieved, best))
        for name, values in ratios.items():
            r[name].append(float(np.mean(values)))
    return r


row("fig18", "on the Large analogue VMR2L's FR < HA's at every MNL",
    lambda s: {"large": large(s)}, ("HA", "POP", "NeuPlan", "VMR2L"),
    lambda s: [s.mnl, s.mnl * 3 // 2, 2 * s.mnl], lambda r: {"vmr2l_lt_ha": lt(r["VMR2L"]["fr"], r["HA"]["fr"])},
    lambda row, s: sweep(row, s)["large"])


row("fig19", "on the Low and Middle workloads VMR2L's FR < HA's at both MNLs, and no method raises FR",
    lambda s: {level: spec_for_workload(level, num_pms=s.medium_pms) for level in ("low", "middle")},
    ("HA", "POP", "VMR2L"), lambda s: [s.mnl, 2 * s.mnl],
    lambda r: {**{f"{level}_vmr2l_lt_ha": lt(c["VMR2L"]["fr"], c["HA"]["fr"]) for level, c in r.items()},
               "no_method_raises_fr": all(max(c[name]["fr"]) <= c["initial"] for c in r.values()
                                          for name in ("HA", "POP", "VMR2L"))},
    sweep)


row("fig20", "after training, the greedy test FR is below the initial FR on both the Medium and the Large analogue",
    lambda s: {"medium": medium(s), "large": large(s)}, ("VMR2L",), AT_MNL,
    lambda r: {f"{label}_final_lt_initial": c["curve"][-1] < c["initial"] for label, c in r.items()},
    lambda row, s: {label: curves(s, spec, {"curve": {}}) for label, spec in row.specs(s).items()})


def holds_fig21(r):
    final = (r["fr_after"] or [r["initial"]])[-1]
    sacrifices = [after for reward, after in zip(r["reward"], r["fr_after"]) if reward <= 0]
    return {"lowers_fr": final < r["initial"], "gives_up_reward_for_a_later_gain": any(final < x for x in sacrifices)}


@row("fig21", "the plan lowers FR, with at least one step that gives up immediate reward for a later gain",
     MEDIUM, ("VMR2L",), AT_MNL, holds_fig21)
def fig21(row, s):
    state = snapshots(s, medium(s))[0]
    traces = trace_plan(state, agent([medium(s)], s.mnl, s).compute_plan(state, s.mnl).plan)
    return {"initial": state.fragment_rate(), "reward": [trace.reward for trace in traces],
            "fr_after": [fr(trace.fragment_rate_after) for trace in traces]}


@row("table2", "at every anti-affinity level VMR2L lowers FR to within 5% of MIP's, and it does no better at "
     "the most constrained level than unconstrained", MEDIUM, ("VMR2L", "MIP"), AT_MNL,
     lambda r: {"vmr2l_within_5pct_of_mip": le(r["VMR2L"], [1.05 * m for m in r["MIP"]]),
                "vmr2l_lowers_fr": max(r["VMR2L"]) < r["initial"],
                "unconstrained_le_most_constrained": r["VMR2L"][0] <= r["VMR2L"][-1]})
def table2(row, s):
    trained, mip = agent([medium(s)], s.mnl, s), planner("MIP", s, medium(s), s.mnl)
    r = {"initial": initial(snapshots(s, medium(s))), "affinity_ratio": [], "VMR2L": [], "MIP": []}
    for groups, size in [(0, 0), (1, 2), (2, 3), (3, 4), (4, 6)]:  # (groups, VMs per group)
        states = snapshots(s, medium(s))
        for state in states if size else ():
            rng = np.random.default_rng(groups)
            assign_anti_affinity_groups(state, group_count=groups, vms_per_group=size, rng=rng)
        r["affinity_ratio"].append(float(np.mean([state.affinity_ratio() for state in states])))
        r["VMR2L"].append(evaluate(trained, states, s.mnl)[0])
        r["MIP"].append(evaluate(mip, states, s.mnl)[0])
    return r


def mixed(s: Scale, objective_type) -> dict:
    """Tables 3-4: VMR2L trained on the mixed objective at each λ, vs POP, on that objective."""
    states = snapshots(s, multi(s))
    r = {"lambda": [0.0, 0.4, 1.0], "initial": [], "VMR2L": [], "POP": []}
    for weight in r["lambda"]:
        objective = objective_type(weight=weight)
        r["initial"].append(initial(states, objective))
        r["VMR2L"].append(evaluate(agent([multi(s)], s.mnl, s, objective), states, s.mnl, objective)[0])
        r["POP"].append(evaluate(planner("POP", s, multi(s), s.mnl), states, s.mnl, objective)[0])
    return r


def holds_mixed(r):
    return {"vmr2l_le_pop": le(r["VMR2L"], r["POP"]), "vmr2l_lowers_objective": lt(r["VMR2L"], r["initial"])}


row("table3", "on the FR16/FR64 mixed objective VMR2L ≤ POP and below the initial value at every λ",
    lambda s: {"multi_resource": multi(s)}, ("VMR2L", "POP"), AT_MNL, holds_mixed,
    lambda row, s: mixed(s, MixedFragmentObjective))
row("table4", "on the FR16/Mem64 mixed objective VMR2L ≤ POP and below the initial value at every λ",
    lambda s: {"multi_resource": multi(s)}, ("VMR2L", "POP"), AT_MNL, holds_mixed,
    lambda row, s: mixed(s, MixedResourceObjective))


def holds_table5(r):
    middle = {name: frs["middle"] for name, frs in r.items() if name != "initial"}
    return {"lh_beats_baselines_on_middle": middle["VMR2L (L,H)"] <= min(middle["HA"], middle["POP"]),
            "no_method_raises_fr": all(r[name][lvl] <= fr0 for name in middle for lvl, fr0 in r["initial"].items())}


@row("table5", "the agent trained on Low+High beats HA and POP on the unseen Middle workload, "
     "and no method raises FR on any workload",
     lambda s: {level: spec_for_workload(level, num_pms=s.medium_pms) for level in ("low", "middle", "high")},
     ("HA", "POP", "VMR2L"), lambda s: [2 * s.mnl], holds_table5)
def table5(row, s):
    specs, mnl = row.specs(s), row.mnls(s)[0]
    methods = {name: planner(name, s, specs["middle"], mnl) for name in ("HA", "POP")}
    methods.update({f"VMR2L ({level[0].upper()})": agent([spec], mnl, s) for level, spec in specs.items()})
    methods["VMR2L (L,H)"] = agent([specs["low"], specs["high"]], mnl, s)
    tests = {level: snapshots(s, spec) for level, spec in specs.items()}
    r = {"initial": {level: initial(states) for level, states in tests.items()}}
    for name, chosen in methods.items():
        r[name] = {level: evaluate(chosen, states, mnl)[0] for level, states in tests.items()}
    return r


@row("churn", "replanning hourly under days of diurnal churn, each plan applied 120 s after its snapshot, "
     "VMR2L's steady-state FR ≤ HA's and < Random's", MEDIUM, ("vmr2l", "ha", "vbpp", "random"), AT_MNL,
     lambda r: {"vmr2l_le_ha": r["vmr2l"]["steady_fr"] <= r["ha"]["steady_fr"] + 1e-9,
                "vmr2l_lt_random": r["vmr2l"]["steady_fr"] < r["random"]["steady_fr"]})
def churn(row, s):
    """Every planner through one ``ReschedulingService.handle`` on the same held-out snapshot and trace."""
    service = ReschedulingService(build_default_registry(agent=agent([medium(s)], s.mnl, s), include_slow=False))
    horizon_s = s.churn_days * 86400.0
    events = SyntheticTrace(ChurnSpec(), seed=0).generate(horizon_s)
    r = {"days": s.churn_days, "events": len(events)}
    for name in row.planners:
        cluster = LivingCluster(snapshots(s, medium(s))[0], events, seed=1)
        config = SimulationConfig(planner=name, migration_limit=s.mnl, replan_every_s=3600.0, plan_delay_s=120.0,
                                  horizon_s=horizon_s)
        report = OnlineRescheduler(cluster, service.handle, config).run()
        assert report.failed_rounds == 0, f"{name}: {report.failed_rounds} failed rounds"
        recounted = ClusterState.from_dict(cluster.state.to_dict()).arrays()  # free = capacity - placed demands
        assert all(map(np.array_equal, recounted.snapshot(), cluster.state.arrays().snapshot())), f"{name}: recount"
        assert all(0.0 <= record.objective_after <= 1.0 for record in report.rounds), f"{name}: FR outside [0, 1]"
        r[name] = {"rounds": len(report.rounds), "steady_fr": fr(report.steady_state_objective),
                   "final_fr": fr(report.final_objective), "invalidation": report.invalidation,
                   "planned": sum(record.planned for record in report.rounds)}
    return r


def run(smoke: bool = False, output: Optional[Path] = None, ids: Sequence[str] = ()) -> dict:
    """Run the rows (all by default), print a verdict line each, and write the payload."""
    s = SMOKE if smoke else FULL
    results = {}
    for row in [ROWS[i] for i in ids] or ROWS.values():
        start = time.perf_counter()
        numbers = row.run(row, s)  # wall_s includes training any agent this row is first to ask for
        wall_s = time.perf_counter() - start
        checks = {name: bool(ok) for name, ok in row.holds(numbers).items()}
        verdict = "reproduced" if all(checks.values()) else "not_reproduced"
        sizes = {label: {"pms": spec.num_pms, "vms": snapshots(s, spec)[0].num_vms}
                 for label, spec in row.specs(s).items()}
        results[row.id] = {"claim": row.claim, "verdict": verdict, "checks": checks, "planners": list(row.planners),
                           "mnl": row.mnls(s), "sizes": sizes, "wall_s": wall_s, "numbers": numbers}
        failed = ", ".join(name for name, ok in checks.items() if not ok)
        print(f"{row.id:7s} {verdict:15s} {wall_s:7.1f} s  {failed}", flush=True)
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=REPO,
                            capture_output=True, text=True).stdout.strip()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    environment = {"cpu_count": cpus, "commit": commit or None}
    payload = {"benchmark": "paper", "smoke": smoke, "environment": environment, "scale": asdict(s), "rows": results}
    if output is not None:
        output.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true", help="tiny clusters and budgets: the table's shape only")
    parser.add_argument("--output", type=Path, default=REPO / "BENCH_paper.json")
    parser.add_argument("rows", nargs="*", metavar="ROW_ID", help=f"rows to run (default all: {' '.join(ROWS)})")
    args = parser.parse_args()
    if set(args.rows) - set(ROWS):
        parser.error(f"unknown row ids: {' '.join(sorted(set(args.rows) - set(ROWS)))}")
    run(smoke=args.smoke, output=args.output, ids=args.rows)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
