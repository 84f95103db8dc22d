"""Scenario: minimize the number of migrations needed to reach an FR goal.

Operators often care less about squeezing out the last fragment and more about
reaching a safe fragmentation level with as few live migrations as possible
(each migration consumes network bandwidth and carries a small risk).  Section
5.5.1 of the paper supports this by swapping the reward (Eq. 10-11): a penalty
accrues for every migration until the FR goal is met.

This example trains a small agent on that objective, compares the number of
migrations it needs against the production heuristic, and uses the live
migration cost model to translate the plans into network time.

Run with::

    python examples/min_migration_objective.py
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.baselines import FilteringHeuristic
from repro.cluster import ConstraintConfig, plan_cost
from repro.core import ModelConfig, PPOConfig, RiskSeekingConfig, VMR2LAgent, VMR2LConfig
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env import MigrationMinimizationObjective

MIGRATION_LIMIT = 12


def migrations_until_goal(state, plan, fr_goal):
    """Apply a plan step by step, stopping as soon as the FR goal is met."""
    working = state.copy()
    used = 0
    for migration in plan:
        if working.fragment_rate() <= fr_goal:
            break
        if not working.can_host(migration.vm_id, migration.dest_pm_id):
            continue
        working.migrate_vm(migration.vm_id, migration.dest_pm_id)
        used += 1
    return used, working


def main() -> None:
    spec = ClusterSpec(num_pms=10, target_utilization=0.78, best_fit_fraction=0.3)
    generator = SnapshotGenerator(spec, seed=5)
    train_states = generator.generate_many(4)
    state = generator.generate()
    initial_fr = state.fragment_rate()
    fr_goal = round(initial_fr * 0.6, 4)
    print(f"cluster: {state.num_pms} PMs / {state.num_vms} VMs, initial FR = {initial_fr:.4f}, "
          f"goal FR <= {fr_goal:.4f}")

    objective = MigrationMinimizationObjective(fr_goal=fr_goal)
    config = VMR2LConfig(
        model=ModelConfig(embed_dim=16, num_heads=2, num_blocks=1, feedforward_dim=32),
        ppo=PPOConfig(rollout_steps=128, minibatch_size=32, update_epochs=2, learning_rate=2.5e-3),
        risk_seeking=RiskSeekingConfig(num_trajectories=4),
        migration_limit=MIGRATION_LIMIT,
    )
    agent = VMR2LAgent(
        config, objective=objective,
        constraint_config=ConstraintConfig(migration_limit=MIGRATION_LIMIT), seed=0,
    )
    print("training VMR2L on the min-migration objective (short CPU budget)...")
    agent.train_on_states(train_states, total_steps=512)

    rows = []
    for planner in (FilteringHeuristic(), agent):
        plan = planner.compute_plan(state, MIGRATION_LIMIT).plan
        used, final_state = migrations_until_goal(state, plan, fr_goal)
        cost = plan_cost(state, plan.truncated(used), parallelism=4)
        rows.append(
            {
                "algorithm": planner.name,
                "migrations_used": used,
                "achieved_fr": final_state.fragment_rate(),
                "goal_met": final_state.fragment_rate() <= fr_goal,
                "memory_moved_gb": cost["total_memory_gb"],
                "migration_makespan_s": cost["makespan_seconds"],
            }
        )
    print()
    print(format_table(rows, title=f"Reaching FR <= {fr_goal:.4f} with as few migrations as possible"))


if __name__ == "__main__":
    main()
