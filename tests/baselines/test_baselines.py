"""Tests for every baseline rescheduler and the shared Rescheduler interface."""

import numpy as np
import pytest

from repro.baselines import (
    AlphaVBPP,
    FilteringHeuristic,
    MCTSRescheduler,
    MIPRescheduler,
    NeuPlanRescheduler,
    POPRescheduler,
    RandomRescheduler,
    Rescheduler,
    evaluate_plan,
    order_migrations,
)
from repro.cluster import (
    ClusterState,
    PhysicalMachine,
    Placement,
    PMType,
    VirtualMachine,
    VMTypeCatalog,
)
from repro.datasets import ClusterSpec, SnapshotGenerator

CATALOG = VMTypeCatalog.main()


def fragmented_state(num_pms=6, seed=0):
    """A small cluster with plenty of fragmentation to repair."""
    spec = ClusterSpec(num_pms=num_pms, target_utilization=0.7, best_fit_fraction=0.2)
    return SnapshotGenerator(spec, seed=seed).generate()


def tiny_state():
    """Hand-built 3-PM cluster where one migration removes all fragments."""
    pms = [PhysicalMachine(pm_id=i, pm_type=PMType("pm32", cpu=32, memory=128)) for i in range(3)]
    state = ClusterState(pms=pms, vms=[])
    state.add_vm(VirtualMachine(vm_id=0, vm_type=CATALOG.get("xlarge")), Placement(0, 0))
    state.add_vm(VirtualMachine(vm_id=1, vm_type=CATALOG.get("4xlarge")), Placement(0, 1))
    state.add_vm(VirtualMachine(vm_id=2, vm_type=CATALOG.get("4xlarge")), Placement(1, 0))
    state.add_vm(VirtualMachine(vm_id=3, vm_type=CATALOG.get("2xlarge")), Placement(1, 1))
    state.add_vm(VirtualMachine(vm_id=4, vm_type=CATALOG.get("xlarge")), Placement(2, 0))
    return state


ALL_FAST_BASELINES = [
    FilteringHeuristic(),
    AlphaVBPP(alpha=3),
    RandomRescheduler(seed=0),
    MCTSRescheduler(iterations_per_step=4, candidate_actions=4, rollout_depth=2),
    NeuPlanRescheduler(relax_factor=10, time_limit_s=5.0),
]


class TestReschedulerInterface:
    @pytest.mark.parametrize("algorithm", ALL_FAST_BASELINES, ids=lambda a: a.name)
    def test_compute_plan_contract(self, algorithm):
        state = fragmented_state()
        before = state.to_dict()
        result = algorithm.compute_plan(state, migration_limit=5)
        # The input snapshot is never mutated.
        assert state.to_dict() == before
        assert result.num_migrations <= 5
        assert result.inference_seconds >= 0.0
        assert result.algorithm == algorithm.name

    @pytest.mark.parametrize("algorithm", ALL_FAST_BASELINES, ids=lambda a: a.name)
    def test_plans_never_increase_fragment_rate_much(self, algorithm):
        state = fragmented_state()
        result = algorithm.compute_plan(state, migration_limit=5)
        evaluation = evaluate_plan(state, result)
        # Random may wander, but every plan must stay a valid FR in [0, 1].
        assert 0.0 <= evaluation.final_objective <= 1.0
        assert evaluation.num_applied + evaluation.num_skipped == evaluation.num_migrations

    def test_zero_migration_limit_is_noop(self):
        # Zero is a well-defined no-op request (used by the serving layer).
        result = FilteringHeuristic().compute_plan(fragmented_state(), migration_limit=0)
        assert result.num_migrations == 0
        assert result.inference_seconds == 0.0
        assert result.info.get("noop") is True

    def test_negative_migration_limit_rejected(self):
        with pytest.raises(ValueError):
            FilteringHeuristic().compute_plan(fragmented_state(), migration_limit=-1)

    def test_base_class_requires_implementation(self):
        with pytest.raises(NotImplementedError):
            Rescheduler().compute_plan(fragmented_state(), 3)


class TestFilteringHeuristic:
    def test_fixes_tiny_cluster(self):
        state = tiny_state()
        result = FilteringHeuristic().compute_plan(state, migration_limit=3)
        evaluation = evaluate_plan(state, result)
        assert evaluation.final_objective < evaluation.initial_objective

    def test_reduces_fr_on_generated_cluster(self):
        state = fragmented_state()
        result = FilteringHeuristic().compute_plan(state, migration_limit=8)
        evaluation = evaluate_plan(state, result)
        assert evaluation.final_objective <= evaluation.initial_objective

    def test_stops_when_no_improvement(self):
        state = tiny_state()
        result = FilteringHeuristic().compute_plan(state, migration_limit=50)
        assert result.num_migrations < 50
        assert result.info["stop_reason"] in ("no_improvement", "no_candidate")

    def test_respects_anti_affinity(self):
        state = fragmented_state()
        vm_ids = sorted(state.vms)[:4]
        for vm_id in vm_ids:
            state.set_anti_affinity_group(vm_id, 1)
        result = FilteringHeuristic().compute_plan(state, migration_limit=6)
        violations = []
        working = state.copy()
        for migration in result.plan:
            if working.can_host(migration.vm_id, migration.dest_pm_id, honor_affinity=True):
                working.migrate_vm(migration.vm_id, migration.dest_pm_id)
            else:
                violations.append(migration)
        assert not violations


class TestAlphaVBPP:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AlphaVBPP(alpha=0)

    def test_stages_run_counts_the_stages_that_ran(self):
        # MNL 40 plans four stages of 10; they move 10, 6 and then 0 VMs,
        # and the stage that moved nothing ends the loop.
        spec = ClusterSpec(num_pms=6, target_utilization=0.7, best_fit_fraction=0.3)
        state = SnapshotGenerator(spec, seed=0).generate()
        planner = AlphaVBPP()
        moved = []
        run_stage = planner._run_stage

        def recording(*args):
            moved.append(run_stage(*args))
            return moved[-1]

        planner._run_stage = recording
        result = planner.compute_plan(state, 40)
        assert moved == [10, 6, 0]
        assert result.info["stages_run"] == 3

    def test_reduces_or_preserves_fr(self):
        state = fragmented_state(seed=1)
        result = AlphaVBPP(alpha=4).compute_plan(state, migration_limit=8)
        evaluation = evaluate_plan(state, result)
        assert evaluation.final_objective <= evaluation.initial_objective + 1e-9

    def test_migrations_only_count_actual_moves(self):
        state = fragmented_state(seed=2)
        result = AlphaVBPP(alpha=4).compute_plan(state, migration_limit=6)
        for migration in result.plan:
            assert state.vms[migration.vm_id].pm_id != migration.dest_pm_id

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("limit", [6, 10, 16])
    def test_plans_are_sequentially_applicable(self, seed, limit):
        # The packer removes all stage victims at once, so naive emission
        # produced moves only jointly feasible; the emitted plan must replay
        # one migration at a time (regression: crashed at NUMA allocate).
        state = fragmented_state(num_pms=10, seed=seed)
        result = AlphaVBPP().compute_plan(state, migration_limit=limit)
        evaluation = evaluate_plan(state, result)
        assert evaluation.num_applied + evaluation.num_skipped == evaluation.num_migrations
        assert evaluation.final_objective <= evaluation.initial_objective + 1e-9

    def test_fully_applied_plans_match_packer_state(self):
        # Ordered plans keep the packer's NUMA picks, so when nothing is
        # skipped the applied state reproduces the fragment rate the
        # algorithm optimized internally.
        state = fragmented_state(seed=1)
        result = AlphaVBPP(alpha=4).compute_plan(state, migration_limit=8)
        evaluation = evaluate_plan(state, result)
        if evaluation.num_skipped == 0:
            assert evaluation.final_objective == pytest.approx(
                result.info["final_fragment_rate"]
            )


    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_plans_replay_strictly(self, seed):
        # Regression: order_migrations appends the cyclic moves it cannot
        # linearize and the stage emitted them too, so 9 of these 300 plans
        # (the e2e benchmark's small inputs: an 8-PM cluster trimmed to 50
        # VMs, 100 snapshots per seed drifted by 4 random migrations) raised
        # on strict replay.
        from repro.cluster import apply_plan

        spec = ClusterSpec(
            name="e2e-small", num_pms=8, target_utilization=0.75, best_fit_fraction=0.3
        )
        generator = SnapshotGenerator(spec, seed=seed)
        base = generator.generate()
        while base.num_vms < 50:
            base = generator.generate()
        trim_rng = np.random.default_rng([seed, 1])
        surplus = trim_rng.choice(base.placed_vm_ids(), size=base.num_vms - 50, replace=False)
        for vm_id in surplus:
            base.remove_vm_from_cluster(int(vm_id))
        rng = np.random.default_rng([seed, 2])
        for _ in range(100):
            state = base.copy()
            for _ in range(4):
                vm_ids = state.placed_vm_ids()
                vm_id = int(vm_ids[rng.integers(len(vm_ids))])
                destinations = state.feasible_destination_pms(vm_id)
                if destinations:
                    state.migrate_vm(vm_id, int(destinations[rng.integers(len(destinations))]))
            result = AlphaVBPP().compute_plan(state, migration_limit=8)
            assert len(result.plan) <= 8
            replayed, _ = apply_plan(state, result.plan, skip_infeasible=False)
            # Only emitted moves were applied internally, so the optimized
            # state is exactly what the plan replays to.
            assert replayed.fragment_rate() == pytest.approx(result.info["final_fragment_rate"])


class TestMIP:
    def test_mip_beats_or_matches_heuristic(self):
        state = fragmented_state()
        mip_eval = evaluate_plan(state, MIPRescheduler(time_limit_s=30).compute_plan(state, 8))
        ha_eval = evaluate_plan(state, FilteringHeuristic().compute_plan(state, 8))
        assert mip_eval.final_objective <= ha_eval.final_objective + 1e-6

    def test_mip_respects_migration_limit(self):
        state = fragmented_state()
        result = MIPRescheduler(time_limit_s=30).compute_plan(state, 3)
        assert result.num_migrations <= 3

    def test_mip_with_candidate_restriction(self):
        state = fragmented_state()
        candidates = sorted(state.vms)[:10]
        result = MIPRescheduler(time_limit_s=15, candidate_vms=candidates).compute_plan(state, 5)
        assert set(result.plan.vm_ids()) <= set(candidates)

    def test_mip_on_tiny_cluster_reaches_zero_fragments(self):
        state = tiny_state()
        result = MIPRescheduler(time_limit_s=15).compute_plan(state, 3)
        evaluation = evaluate_plan(state, result)
        assert evaluation.final_objective == pytest.approx(0.0, abs=1e-9)

    def test_mip_honors_anti_affinity(self):
        """The final assignment never co-locates conflicting VMs.

        The MIP optimizes the *final* assignment (Eq. 1-7), so it may propose
        swaps that are only executable in a particular order; applying the plan
        with affinity enforcement (production behaviour) must still never leave
        two conflicting VMs on the same PM.
        """
        from repro.cluster import apply_plan

        state = tiny_state()
        for vm_id in (0, 2, 4):
            state.set_anti_affinity_group(vm_id, 3)
        result = MIPRescheduler(time_limit_s=15).compute_plan(state, 3)
        final_state, _ = apply_plan(state, result.plan, honor_affinity=True, skip_infeasible=True)
        for pm_id in final_state.pms:
            groups = [
                final_state.vms[v].anti_affinity_group
                for v in final_state.pms[pm_id].vm_ids
                if final_state.vms[v].anti_affinity_group is not None
            ]
            assert len(groups) == len(set(groups))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_applied_plan_keeps_the_milp_numa_choice(self, seed):
        """The applied plan reaches the slot count the MILP claims.

        On these snapshots the solver's optimum needs specific NUMAs; a plan
        that keeps only the destination PM (best-fit NUMA on apply) ends
        16-core slots short (seed 1: 20 vs 21, seed 2: 20 vs 22).
        """
        from repro.cluster import apply_plan

        spec = ClusterSpec(num_pms=10, target_utilization=0.78, best_fit_fraction=0.3)
        state = SnapshotGenerator(spec, seed=seed).generate()
        result = MIPRescheduler().compute_plan(state, 10)
        final_state, _ = apply_plan(state, result.plan, skip_infeasible=False)
        free_cpu = final_state.arrays().numa_free_cpu
        slots = int(np.floor(free_cpu / final_state.fragment_cores).sum())
        assert slots == result.info["objective_slots"]

    def test_order_migrations_produces_applicable_sequence(self):
        state = tiny_state()
        assignment = {0: 1, 2: 2}  # move VM0 to PM1, VM2 to PM2
        plan = order_migrations(state, assignment)
        working = state.copy()
        applied = 0
        for migration in plan:
            if working.can_host(migration.vm_id, migration.dest_pm_id, honor_affinity=False):
                working.migrate_vm(migration.vm_id, migration.dest_pm_id)
                applied += 1
        assert applied == len(plan)

    def test_order_migrations_keeps_a_feasible_numa_target(self):
        state = tiny_state()
        # Best-fit would put VM0 (4 cores) on PM2's tighter NUMA 0 (12 free).
        plan = order_migrations(state, {0: 2}, numa_targets={0: 1})
        assert [(m.vm_id, m.dest_pm_id, m.dest_numa_id) for m in plan] == [(0, 2, 1)]

    def test_order_migrations_downgrades_a_stale_numa_target_to_best_fit(self):
        state = tiny_state()
        # PM0's NUMA 1 is full, but VM3 (8 cores) fits on its NUMA 0.
        plan = order_migrations(state, {3: 0}, numa_targets={3: 1})
        assert [(m.vm_id, m.dest_pm_id, m.dest_numa_id) for m in plan] == [(3, 0, None)]


class TestPOP:
    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            POPRescheduler(num_partitions=0)

    def test_pop_reduces_fr_but_not_below_full_mip(self):
        state = fragmented_state()
        pop_eval = evaluate_plan(state, POPRescheduler(num_partitions=3, time_limit_s=15).compute_plan(state, 8))
        mip_eval = evaluate_plan(state, MIPRescheduler(time_limit_s=30).compute_plan(state, 8))
        assert pop_eval.final_objective <= pop_eval.initial_objective
        assert mip_eval.final_objective <= pop_eval.final_objective + 1e-6

    def test_pop_is_faster_than_full_mip_on_same_budget(self):
        state = fragmented_state(num_pms=8, seed=3)
        pop_result = POPRescheduler(num_partitions=4, time_limit_s=20).compute_plan(state, 8)
        assert pop_result.info["partitions"]


class TestMCTS:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MCTSRescheduler(iterations_per_step=0)

    def test_mcts_improves_tiny_cluster(self):
        state = tiny_state()
        result = MCTSRescheduler(iterations_per_step=8, candidate_actions=4).compute_plan(state, 3)
        evaluation = evaluate_plan(state, result)
        assert evaluation.final_objective <= evaluation.initial_objective

    def test_mcts_records_simulations(self):
        state = tiny_state()
        result = MCTSRescheduler(iterations_per_step=4).compute_plan(state, 2)
        assert result.info["simulations"] >= 4


class TestNeuPlan:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NeuPlanRescheduler(prefix_fraction=1.5)
        with pytest.raises(ValueError):
            NeuPlanRescheduler(relax_factor=0)

    def test_neuplan_combines_prefix_and_mip(self):
        state = fragmented_state()
        result = NeuPlanRescheduler(prefix_fraction=0.4, relax_factor=12, time_limit_s=10).compute_plan(state, 6)
        evaluation = evaluate_plan(state, result)
        assert evaluation.final_objective <= evaluation.initial_objective
        assert result.num_migrations <= 6
