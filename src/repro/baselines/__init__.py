"""Baseline rescheduling algorithms the paper compares against (§5.1).

One representative per category:

* heuristics — :class:`FilteringHeuristic` (HA), :class:`AlphaVBPP`
* exact optimization — :class:`MIPRescheduler`
* approximate optimization — :class:`POPRescheduler`
* search — :class:`MCTSRescheduler`
* hybrid — :class:`NeuPlanRescheduler`
* sanity check — :class:`RandomRescheduler`

All implement the :class:`Rescheduler` interface; :func:`evaluate_plan` applies
a plan and reports the achieved objective.
"""

from .base import PlanEvaluation, Rescheduler, ReschedulingResult, evaluate_plan
from .heuristic import FilteringHeuristic
from .mcts import MCTSRescheduler
from .mip import MIPRescheduler, order_migrations
from .neuplan import NeuPlanRescheduler
from .pop import POPRescheduler
from .random_policy import RandomRescheduler
from .vbpp import AlphaVBPP

__all__ = [
    "AlphaVBPP",
    "FilteringHeuristic",
    "MCTSRescheduler",
    "MIPRescheduler",
    "NeuPlanRescheduler",
    "PlanEvaluation",
    "POPRescheduler",
    "RandomRescheduler",
    "Rescheduler",
    "ReschedulingResult",
    "evaluate_plan",
    "order_migrations",
]
