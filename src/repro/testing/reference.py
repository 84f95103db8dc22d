"""Reference planners that parity checks run the service against."""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..baselines import ReschedulingResult
from ..cluster import ClusterState
from ..env.objectives import Objective
from ..serve.registry import RLPlanner


class FreshRLPlanner(RLPlanner):
    """The VMR2L planner with the StepCache off: every decision step
    re-featurizes and re-encodes the whole snapshot.

    The service always plans RL requests with the cache on, so the fresh
    side of a cache parity check is this planner swapped into the registry
    (``registry.replace("vmr2l", FreshRLPlanner(agent))``).  ``calls``
    counts ``plan_batch`` calls, so a check can prove the reference ran.
    """

    def __init__(self, agent) -> None:
        super().__init__(agent)
        self.calls = 0

    def plan_batch(
        self,
        states: Sequence[ClusterState],
        migration_limits: Sequence[int],
        objective: Optional[Objective] = None,
        greedy: bool = True,
        seed: Optional[int] = None,
        max_active: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> List[ReschedulingResult]:
        self.calls += 1
        return self.agent.plan_batch(
            states,
            list(migration_limits),
            greedy=greedy,
            seed=0 if seed is None else seed,
            objective=objective,
            max_active=max_active,
            use_step_cache=False,
            deadline_s=deadline_s,
        )
