"""The :class:`Planner` protocol and the registry unifying every algorithm.

Historically each consumer spoke a different dialect: ``TwoStagePolicy.act``
for the RL agent, ``Rescheduler.compute_plan`` for baselines, ad-hoc CLI
wiring for both.  :class:`Planner` is the single serving-facing contract:

* ``name`` — the display name reported in responses (``"VMR2L"``, ``"HA"``…),
* ``capabilities`` — feature flags the service keys its dispatch on
  (``"batch"`` enables micro-batching, ``"objective"`` means the planner
  optimizes the requested objective rather than only evaluating under it,
  ``"sampled"`` means ``greedy=False`` requests are meaningful,
  ``"deadline"`` means ``plan_batch`` honors a ``deadline_s`` budget and
  returns best-effort partial plans when it runs out),
* ``plan()`` — one snapshot in, one :class:`ReschedulingResult` out,
* ``plan_batch()`` — many snapshots with shared model forwards; the default
  implementation just loops ``plan``.

:class:`PlannerRegistry` maps lowercase keys (plus aliases) to planners;
:func:`build_default_registry` registers the VMR2L agent and every baseline
in :mod:`repro.baselines`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..baselines import (
    AlphaVBPP,
    FilteringHeuristic,
    MCTSRescheduler,
    MIPRescheduler,
    NeuPlanRescheduler,
    POPRescheduler,
    RandomRescheduler,
    Rescheduler,
    ReschedulingResult,
)
from ..cluster import ClusterState
from ..core.agent import VMR2LAgent
from ..env.objectives import Objective


class Planner:
    """Serving-facing contract every registered algorithm implements."""

    name: str = "planner"
    capabilities: frozenset = frozenset()
    description: str = ""

    def plan(
        self,
        state: ClusterState,
        migration_limit: int,
        objective: Optional[Objective] = None,
        greedy: bool = True,
        seed: Optional[int] = None,
    ) -> ReschedulingResult:
        raise NotImplementedError

    def plan_batch(
        self,
        states: Sequence[ClusterState],
        migration_limits: Sequence[int],
        objective: Optional[Objective] = None,
        greedy: bool = True,
        seed: Optional[int] = None,
        max_active: Optional[int] = None,
    ) -> List[ReschedulingResult]:
        """Default batch path: one ``plan`` call per snapshot.

        ``max_active`` caps how many episodes a batch-capable planner runs
        concurrently (ignored by this sequential default).
        """
        return [
            self.plan(state, limit, objective=objective, greedy=greedy, seed=seed)
            for state, limit in zip(states, migration_limits)
        ]

    def describe(self) -> Dict:
        return {
            "name": self.name,
            "capabilities": sorted(self.capabilities),
            "description": self.description,
        }


class BaselinePlanner(Planner):
    """Adapter exposing a :class:`Rescheduler` factory through the protocol.

    A fresh rescheduler is built per request (factories are cheap), keeping
    planners stateless across requests and safe to share between threads.
    ``seed`` is forwarded to factories that accept it.
    """

    def __init__(
        self,
        name: str,
        factory: Callable[..., Rescheduler],
        description: str = "",
        seedable: bool = False,
    ) -> None:
        self.name = name
        self.factory = factory
        self.description = description
        self.seedable = seedable
        self.capabilities = frozenset({"sampled"} if seedable else set())

    def plan(
        self,
        state: ClusterState,
        migration_limit: int,
        objective: Optional[Objective] = None,
        greedy: bool = True,
        seed: Optional[int] = None,
    ) -> ReschedulingResult:
        if self.seedable and seed is not None:
            rescheduler = self.factory(seed=seed)
        else:
            rescheduler = self.factory()
        return rescheduler.compute_plan(state, migration_limit)


class RLPlanner(Planner):
    """The VMR2L agent behind the protocol, with true micro-batching.

    Every request goes through :meth:`VMR2LAgent.plan_batch` with the
    request's objective and seed (``None`` means 0), so nothing on the
    shared agent changes per request.  ``greedy=True`` (the serving
    default) runs a deterministic single trajectory, and many greedy
    requests share one stacked extractor forward per step, always on the
    StepCache (``tests/oracles.py::FreshRLPlanner`` is the cache-off
    reference).  ``greedy=False`` runs the risk-seeking evaluation of §3.4 (sample
    several trajectories as rows of one stacked rollout, keep the best);
    its plan depends only on the snapshot, limit, objective and seed.
    """

    capabilities = frozenset({"batch", "objective", "sampled", "deadline"})
    description = "two-stage deep-RL rescheduler (the paper's system)"

    def __init__(self, agent: VMR2LAgent) -> None:
        self.agent = agent
        self.name = agent.name

    def plan(
        self,
        state: ClusterState,
        migration_limit: int,
        objective: Optional[Objective] = None,
        greedy: bool = True,
        seed: Optional[int] = None,
    ) -> ReschedulingResult:
        return self.plan_batch(
            [state], [migration_limit], objective=objective, greedy=greedy, seed=seed
        )[0]

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
        return self.agent.plan_batch(
            states,
            list(migration_limits),
            greedy=greedy,
            seed=0 if seed is None else seed,
            objective=objective,
            max_active=max_active,
            deadline_s=deadline_s,
        )


class PlannerRegistry:
    """Name → planner lookup with aliases (keys are case-insensitive)."""

    def __init__(self) -> None:
        self._planners: Dict[str, Planner] = {}
        self._aliases: Dict[str, str] = {}

    def register(self, key: str, planner: Planner, aliases: Sequence[str] = ()) -> Planner:
        key = key.lower()
        if key in self._planners:
            raise ValueError(f"planner {key!r} is already registered")
        self._planners[key] = planner
        for alias in aliases:
            alias = alias.lower()
            if alias in self._planners or alias in self._aliases:
                raise ValueError(f"alias {alias!r} is already taken")
            self._aliases[alias] = key
        return planner

    def replace(self, key: str, planner: Planner) -> Planner:
        """Swap an already-registered planner (aliases keep pointing at it).

        This is how the fault-injection harness plants a wrapped planner
        inside a replica's registry; it refuses to create new keys so a typo
        fails loudly instead of registering an unreachable planner.
        """
        key = key.lower()
        key = self._aliases.get(key, key)
        if key not in self._planners:
            raise KeyError(f"unknown planner {key!r}; registered: {self.names()}")
        self._planners[key] = planner
        return planner

    def get(self, name: str) -> Planner:
        key = name.lower()
        key = self._aliases.get(key, key)
        try:
            return self._planners[key]
        except KeyError:
            raise KeyError(
                f"unknown planner {name!r}; registered: {self.names()}"
            ) from None

    def __contains__(self, name: str) -> bool:
        key = name.lower()
        return key in self._planners or key in self._aliases

    def names(self) -> List[str]:
        return sorted(self._planners)

    def describe(self) -> List[Dict]:
        return [
            dict(self._planners[key].describe(), key=key)
            for key in self.names()
        ]


def build_default_registry(
    checkpoint=None,
    agent: Optional[VMR2LAgent] = None,
    include_slow: bool = True,
    seed: int = 0,
) -> PlannerRegistry:
    """Registry with the RL planner and every baseline in :mod:`repro.baselines`.

    ``checkpoint`` loads a trained VMR2L agent; otherwise ``agent`` (or a
    freshly initialized, untrained agent) backs the ``rl`` entry so the full
    API surface works out of the box.  ``include_slow=False`` drops the
    optimization/search baselines (MIP, POP, MCTS, NeuPlan) for
    latency-sensitive deployments.
    """
    registry = PlannerRegistry()
    if agent is None:
        agent = VMR2LAgent.load(checkpoint) if checkpoint is not None else VMR2LAgent(seed=seed)
    registry.register("vmr2l", RLPlanner(agent), aliases=("rl", "agent"))
    registry.register(
        "ha",
        BaselinePlanner("HA", FilteringHeuristic, "greedy filtering + scoring heuristic"),
        aliases=("heuristic",),
    )
    registry.register(
        "vbpp",
        BaselinePlanner("alpha-VBPP", AlphaVBPP, "staged vector bin-packing heuristic"),
    )
    registry.register(
        "random",
        BaselinePlanner(
            "Random", RandomRescheduler, "uniform random feasible migrations", seedable=True
        ),
    )
    if include_slow:
        registry.register(
            "mip",
            BaselinePlanner(
                "MIP",
                lambda: MIPRescheduler(time_limit_s=30.0),
                "exact mixed-integer optimization (time-limited)",
            ),
        )
        registry.register(
            "pop",
            BaselinePlanner(
                "POP",
                lambda seed=seed: POPRescheduler(num_partitions=4, time_limit_s=5.0, seed=seed),
                "partitioned optimization (approximate MIP)",
                seedable=True,
            ),
        )
        registry.register(
            "mcts",
            BaselinePlanner(
                "MCTS",
                lambda seed=seed: MCTSRescheduler(seed=seed),
                "Monte-Carlo tree search over migrations",
                seedable=True,
            ),
        )
        registry.register(
            "neuplan",
            BaselinePlanner(
                "NeuPlan",
                lambda: NeuPlanRescheduler(time_limit_s=5.0),
                "heuristic prefix + relaxed MIP suffix hybrid",
            ),
        )
    return registry
