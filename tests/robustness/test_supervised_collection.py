"""Chaos tests for supervised multi-process collection.

Faults are injected deterministically via :mod:`repro.testing.faults`
(in-process wrappers that crash/hang worker processes at a chosen step), plus
direct SIGKILLs for the close-after-crash regression.  Crash/hang faults use
one-shot latch files so the *respawned* worker does not re-fault and exhaust
the restart budget.
"""

import threading
import time
from functools import partial

import numpy as np
import pytest

from repro.cluster import ConstraintConfig
from repro.datasets import ClusterSpec, SnapshotGenerator
from repro.env import AsyncVectorEnv, AsyncVectorEnvError, VMRescheduleEnv
from repro.testing import CRASH_EXIT_CODE, FaultPlan, faulty_factories


@pytest.fixture(scope="module")
def snapshot():
    spec = ClusterSpec(name="chaos", num_pms=6, target_utilization=0.72, best_fit_fraction=0.3)
    return SnapshotGenerator(spec, seed=11).generate()


def factories(snapshot, count, migration_limit=4):
    config = ConstraintConfig(migration_limit=migration_limit)
    return [partial(VMRescheduleEnv, snapshot.copy(), config) for _ in range(count)]


def first_actions(venv, observations):
    """One legal (vm, pm) action per env via the vectorized mask exchange."""
    actions = []
    for index, obs in enumerate(observations):
        vm = int(np.flatnonzero(obs.vm_mask)[0])
        pm = int(np.flatnonzero(venv.pm_action_mask(index, vm))[0])
        actions.append((vm, pm))
    return actions


def collect_episode(venv, max_steps=12):
    """Step every env until each has reported done at least once."""
    observations = venv.reset()
    seen_done = np.zeros(venv.num_envs, dtype=bool)
    seen_restart = np.zeros(venv.num_envs, dtype=bool)
    for _ in range(max_steps):
        observations, _, dones, infos = venv.step(first_actions(venv, observations))
        seen_done |= np.asarray(dones, dtype=bool)
        for index, info in enumerate(infos):
            if info.get("worker_restarted"):
                seen_restart[index] = True
        if seen_done.all():
            break
    return seen_done, seen_restart


class TestSupervisedRestart:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_crash_mid_rollout_restarts_and_completes(self, snapshot, tmp_path, start_method):
        latch = str(tmp_path / f"crash-{start_method}.latch")
        plan = FaultPlan.crash(1, at_step=1, latch=latch)
        venv = AsyncVectorEnv(
            faulty_factories(factories(snapshot, 3), plan),
            num_workers=3,
            start_method=start_method,
            seed=7,
            on_worker_failure="restart",
        )
        try:
            seen_done, seen_restart = collect_episode(venv)
            assert seen_done.all(), "collection did not complete after the restart"
            assert seen_restart[1], "restarted env was not flagged"
            assert not seen_restart[0] and not seen_restart[2]
            stats = venv.supervisor_stats()
            assert stats["policy"] == "restart"
            assert stats["restarts"] == 1
            assert stats["restarts_per_worker"][1] == 1
        finally:
            venv.close()

    def test_hang_detected_by_timeout_and_restarted(self, snapshot, tmp_path):
        latch = str(tmp_path / "hang.latch")
        plan = FaultPlan.hang(2, at_step=1, latch=latch)
        venv = AsyncVectorEnv(
            faulty_factories(factories(snapshot, 3), plan),
            num_workers=3,
            seed=7,
            on_worker_failure="restart",
            worker_timeout_s=2.0,
        )
        try:
            seen_done, seen_restart = collect_episode(venv)
            assert seen_done.all()
            assert seen_restart[2]
            assert venv.supervisor_stats()["restarts"] == 1
        finally:
            venv.close()

    def test_restarted_shard_is_reseeded_and_reset(self, snapshot, tmp_path):
        latch = str(tmp_path / "reseed.latch")
        plan = FaultPlan.crash(0, at_step=0, latch=latch)
        limit = 4
        venv = AsyncVectorEnv(
            faulty_factories(factories(snapshot, 2, migration_limit=limit), plan),
            num_workers=2,
            seed=5,
            on_worker_failure="restart",
        )
        try:
            observations = venv.reset()
            observations, _, dones, infos = venv.step(first_actions(venv, observations))
            assert infos[0].get("worker_restarted")
            assert bool(dones[0]), "the destroyed episode must report done"
            # The replacement worker reset its shard: the slot holds a fresh
            # initial observation (full migration budget), matching a fresh
            # env built from the same deterministic factory.
            assert observations[0].migrations_left == limit
            reference = VMRescheduleEnv(
                snapshot.copy(), ConstraintConfig(migration_limit=limit)
            ).reset()
            np.testing.assert_array_equal(observations[0].pm_features, reference.pm_features)
            np.testing.assert_array_equal(observations[0].vm_features, reference.vm_features)
        finally:
            venv.close()

    def test_restart_budget_exhaustion_raises(self, snapshot):
        # No latch: the replacement crashes at the same step, again and again,
        # so the per-worker budget runs out and the failure becomes terminal.
        plan = FaultPlan.crash(1, at_step=0)
        venv = AsyncVectorEnv(
            faulty_factories(factories(snapshot, 2), plan),
            num_workers=2,
            seed=7,
            on_worker_failure="restart",
            max_worker_restarts=1,
            restart_backoff_s=0.01,
        )
        try:
            observations = venv.reset()
            with pytest.raises(AsyncVectorEnvError, match="restart budget"):
                for _ in range(4):
                    observations, _, _, _ = venv.step(first_actions(venv, observations))
        finally:
            venv.close(terminate=True)

    def test_negative_restart_backoff_is_rejected_at_construction(self, snapshot, tmp_path):
        # Accepted before, it broke the first restart instead: the crash
        # below reached time.sleep(-0.05) and raised "sleep length must be
        # non-negative".  The restart budget's RetryPolicy now refuses it.
        plan = FaultPlan.crash(1, at_step=1, latch=str(tmp_path / "neg.latch"))
        with pytest.raises(ValueError, match="backoff"):
            AsyncVectorEnv(
                faulty_factories(factories(snapshot, 2), plan),
                num_workers=2,
                seed=7,
                on_worker_failure="restart",
                restart_backoff_s=-0.05,
            )

    def test_raise_policy_stays_terminal(self, snapshot, tmp_path):
        latch = str(tmp_path / "raise-policy.latch")
        plan = FaultPlan.crash(0, at_step=0, latch=latch)
        venv = AsyncVectorEnv(
            faulty_factories(factories(snapshot, 2), plan),
            num_workers=2,
            seed=7,
            on_worker_failure="raise",
        )
        try:
            observations = venv.reset()
            with pytest.raises(AsyncVectorEnvError):
                venv.step(first_actions(venv, observations))
        finally:
            venv.close(terminate=True)

    def test_crash_exit_code_is_distinguishable(self, snapshot, tmp_path):
        latch = str(tmp_path / "exitcode.latch")
        plan = FaultPlan.crash(0, at_step=0, latch=latch)
        venv = AsyncVectorEnv(
            faulty_factories(factories(snapshot, 1), plan),
            num_workers=1,
            seed=7,
            on_worker_failure="raise",
        )
        try:
            observations = venv.reset()
            with pytest.raises(AsyncVectorEnvError, match=str(CRASH_EXIT_CODE)):
                venv.step(first_actions(venv, observations))
        finally:
            venv.close(terminate=True)


class TestCloseAfterCrash:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_close_never_hangs_on_a_sigkilled_worker(self, snapshot, start_method):
        venv = AsyncVectorEnv(
            factories(snapshot, 3), num_workers=3, start_method=start_method, seed=3
        )
        venv.reset()
        venv._processes[1].kill()
        venv._processes[1].join(timeout=10.0)

        finished = threading.Event()

        def close_it():
            venv.close(timeout=2.0)
            finished.set()

        thread = threading.Thread(target=close_it, daemon=True)
        start = time.monotonic()
        thread.start()
        assert finished.wait(timeout=30.0), "close() hung on the dead worker's pipe"
        assert time.monotonic() - start < 30.0
        for process in venv._processes:
            assert process is None or not process.is_alive()

    def test_close_after_supervised_restart(self, snapshot, tmp_path):
        latch = str(tmp_path / "close-restart.latch")
        plan = FaultPlan.crash(0, at_step=0, latch=latch)
        venv = AsyncVectorEnv(
            faulty_factories(factories(snapshot, 2), plan),
            num_workers=2,
            seed=7,
            on_worker_failure="restart",
        )
        observations = venv.reset()
        venv.step(first_actions(venv, observations))
        assert venv.supervisor_stats()["restarts"] == 1
        venv.close()  # must join the *replacement* processes cleanly
        for process in venv._processes:
            assert process is None or not process.is_alive()


class TestSlowFaults:
    def test_slow_steps_only_add_latency(self, snapshot):
        plan = FaultPlan.slow(0, at_step=0, latency_s=0.2)
        venv = AsyncVectorEnv(
            faulty_factories(factories(snapshot, 2), plan),
            num_workers=2,
            seed=7,
            on_worker_failure="restart",
            worker_timeout_s=5.0,  # slow, but under the hang threshold
        )
        try:
            observations = venv.reset()
            observations, _, _, infos = venv.step(first_actions(venv, observations))
            assert not any(info.get("worker_restarted") for info in infos)
            assert venv.supervisor_stats()["restarts"] == 0
        finally:
            venv.close()
