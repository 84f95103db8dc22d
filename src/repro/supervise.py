"""Process supervision for the replica fleet.

The fleet runs worker processes over a duplex pipe and recovers from their
death through these helpers: :func:`spawn` starts a daemon process with the
child end of a fresh pipe, :func:`stop` escalates until the process is gone
(join → SIGTERM → SIGKILL), and
:class:`RetryPolicy` is the one capped, jittered exponential backoff — for
request retries and replica respawns alike.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, jittered exponential backoff for retries and restarts.

    ``max_retries`` counts *re*-attempts: a request is tried at most
    ``max_retries + 1`` times before it fails with a stable error (a worker
    slot is restarted at most ``max_retries`` times).  Attempt ``k``
    (1-based) backs off ``backoff_s * 2**(k-1)`` seconds, capped at
    ``backoff_cap_s``, plus up to ``jitter`` fraction of that on top so
    retry storms decorrelate.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must not be negative")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff durations must not be negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, attempt: int, rng=None) -> float:
        """Delay before retry ``attempt`` (1-based); jittered when ``rng`` given."""
        if attempt < 1:
            return 0.0
        delay = min(self.backoff_s * (2.0 ** (attempt - 1)), self.backoff_cap_s)
        if rng is not None and self.jitter > 0:
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay


def _child_main(target, parent_conn, conn, args) -> None:
    # Under fork the child inherits the parent's end too; closing it means a
    # dead parent reads as EOF in the child instead of a silent hang.
    parent_conn.close()
    target(conn, *args)


def spawn(ctx, target, args, name: str):
    """Start ``target(conn, *args)`` in a daemon process; return ``(process, conn)``.

    ``conn`` is the parent's end of a duplex pipe.  The parent drops its copy
    of the child end at once, so the child's death reads as EOF.  Under
    ``spawn`` the target and args must pickle.
    """
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    process = ctx.Process(
        target=_child_main,
        args=(target, parent_conn, child_conn, tuple(args)),
        name=name,
        daemon=True,
    )
    process.start()
    child_conn.close()
    return process, parent_conn


def stop(process, grace: float) -> None:
    """Make ``process`` exit; bounded even for a wedged child.

    Waits ``grace`` seconds for a voluntary exit, then sends SIGTERM, then
    SIGKILL (half a second each).  The pipe stays open: whoever reads it
    sees the exit as EOF and closes it.
    """
    process.join(timeout=grace)
    for signal_process in (process.terminate, process.kill):
        if not process.is_alive():
            break
        signal_process()
        process.join(timeout=0.5)
