"""Unit tests for the fleet's process supervision helpers.

:func:`repro.supervise.spawn` and :func:`repro.supervise.stop` are exercised
directly with tiny worker targets (module-level so they pickle under
``spawn``); every wait is bounded so a regression fails instead of hanging.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.supervise import RetryPolicy, spawn, stop

WAIT_S = 10.0


def _echo(conn):
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        conn.send(("echo", message))


def _exit_with(conn, code):
    os._exit(code)


def _exit_on_eof(conn, code):
    try:
        conn.recv()
    except EOFError:
        os._exit(code)
    os._exit(0)


def _sleep(conn):
    conn.send("ready")
    time.sleep(60)


def _ignore_sigterm(conn):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("ready")
    time.sleep(60)


def _start(target, args=(), method="fork"):
    return spawn(multiprocessing.get_context(method), target, args, name=f"test-{target.__name__}")


def _wait_ready(conn):
    assert conn.poll(WAIT_S), "worker never reported ready"
    assert conn.recv() == "ready"


class TestSpawn:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_duplex_round_trip(self, method):
        process, conn = _start(_echo, method=method)
        try:
            conn.send({"n": 1})
            assert conn.poll(WAIT_S)
            assert conn.recv() == ("echo", {"n": 1})
        finally:
            conn.close()  # the echo loop ends on EOF
            stop(process, grace=WAIT_S)
        assert process.exitcode == 0

    def test_process_is_a_named_daemon(self):
        process, conn = _start(_echo)
        try:
            assert process.daemon
            assert process.name == "test-_echo"
            assert process.is_alive()
        finally:
            conn.close()
            stop(process, grace=WAIT_S)

    def test_child_death_reads_as_eof(self):
        process, conn = _start(_exit_with, (0,))
        try:
            assert conn.poll(WAIT_S), "a dead child must make the pipe readable"
            with pytest.raises(EOFError):
                conn.recv()
        finally:
            conn.close()
            stop(process, grace=WAIT_S)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_parent_close_reads_as_eof_in_child(self, method):
        process, conn = _start(_exit_on_eof, (3,), method=method)
        conn.close()
        process.join(timeout=WAIT_S)
        try:
            assert process.exitcode == 3
        finally:
            stop(process, grace=0.0)


class TestStop:
    def test_waits_for_a_voluntary_exit(self):
        process, conn = _start(_echo)
        conn.close()  # the echo loop ends on EOF
        stop(process, grace=WAIT_S)
        assert not process.is_alive()
        assert process.exitcode == 0

    def test_terminates_a_child_that_does_not_exit(self):
        process, conn = _start(_sleep)
        _wait_ready(conn)
        started = time.monotonic()
        stop(process, grace=0.2)
        assert time.monotonic() - started < 5.0  # bounded, far below the 60 s sleep
        assert not process.is_alive()
        assert process.exitcode == -signal.SIGTERM
        conn.close()

    def test_kills_a_child_that_ignores_sigterm(self):
        process, conn = _start(_ignore_sigterm)
        _wait_ready(conn)
        started = time.monotonic()
        stop(process, grace=0.2)
        assert time.monotonic() - started < 5.0  # bounded, far below the 60 s sleep
        assert not process.is_alive()
        assert process.exitcode == -signal.SIGKILL
        conn.close()

    def test_after_sigkill_is_clean(self):
        process, conn = _start(_sleep)
        _wait_ready(conn)
        os.kill(process.pid, signal.SIGKILL)
        stop(process, grace=WAIT_S)
        assert process.exitcode == -signal.SIGKILL
        conn.close()

    def test_leaves_the_pipe_to_its_reader(self):
        # The reader, not stop(), closes the parent end: the exit reads as
        # EOF there, so no other thread ever closes a pipe under a recv.
        process, conn = _start(_sleep)
        _wait_ready(conn)
        stop(process, grace=0.0)
        assert not conn.closed
        assert conn.poll(WAIT_S)
        with pytest.raises(EOFError):
            conn.recv()
        conn.close()

    def test_stopping_twice_is_harmless(self):
        process, conn = _start(_echo)
        conn.close()
        stop(process, grace=WAIT_S)
        stop(process, grace=0.0)
        assert process.exitcode == 0


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "fields",
        [
            {"max_retries": -1},
            {"backoff_s": -0.1},
            {"backoff_cap_s": -1.0},
            {"jitter": -0.1},
            {"jitter": 1.5},
        ],
    )
    def test_invalid_fields_rejected(self, fields):
        with pytest.raises(ValueError):
            RetryPolicy(**fields)

    def test_backoff_doubles_until_the_cap(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_cap_s=0.5)
        assert [policy.backoff(k) for k in range(1, 6)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.5, 0.5]
        )

    @pytest.mark.parametrize("attempt", [0, -1])
    def test_no_delay_before_the_first_retry(self, attempt):
        assert RetryPolicy().backoff(attempt, rng=np.random.default_rng(0)) == 0.0

    def test_jitter_stays_within_its_fraction(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_cap_s=10.0, jitter=0.5)
        rng = np.random.default_rng(0)
        for attempt in range(1, 5):
            base = policy.backoff(attempt)
            delays = [policy.backoff(attempt, rng=rng) for _ in range(50)]
            assert min(delays) >= base
            assert max(delays) <= base * 1.5
            assert len(set(delays)) > 1

    def test_zero_jitter_ignores_the_rng(self):
        policy = RetryPolicy(backoff_s=0.1, jitter=0.0)
        rng = np.random.default_rng(0)
        assert policy.backoff(2, rng=rng) == policy.backoff(2)

    def test_same_seed_same_schedule(self):
        policy = RetryPolicy()

        def schedule(seed):
            rng = np.random.default_rng(seed)
            return [policy.backoff(k, rng=rng) for k in range(1, 4)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)
