"""Monte-Carlo tree search rescheduler with pruned candidate actions.

The paper compares against a data-driven tree-search baseline (DDTS-style,
Zhu et al. CIKM '21): plain MCTS over the full (VM, PM) action space is
hopeless, so the search only branches over a pruned candidate set — the top-K
(VM, destination) pairs ranked by their immediate fragment reduction — and
estimates values with greedy rollouts.  The rollout/iteration budget controls
the latency/quality trade-off that makes MCTS fall behind under the
five-second limit (§5.2).

Every gain is read from the state's move scores
(:meth:`~repro.cluster.soa.ClusterArrays.move_scores`): the candidates are a
stable top-K over all legal (VM, PM) pairs, ties in sorted-VM then sorted-PM
order, and a move's gain is one cell of its VM's row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster import ClusterState, Migration, MigrationPlan
from .base import Rescheduler


@dataclass
class _Node:
    """One search-tree node: a cluster state reached after some migrations."""

    state: ClusterState
    depth: int
    parent: Optional["_Node"] = None
    action: Optional[Tuple[int, int]] = None
    children: Dict[Tuple[int, int], "_Node"] = field(default_factory=dict)
    visits: int = 0
    total_value: float = 0.0
    untried: Optional[List[Tuple[int, int]]] = None

    @property
    def mean_value(self) -> float:
        return self.total_value / self.visits if self.visits else 0.0


#: UCT exploration constant.
_EXPLORATION = 1.0


class MCTSRescheduler(Rescheduler):
    """Pruned Monte-Carlo tree search over migration sequences."""

    name = "MCTS"

    def __init__(
        self,
        iterations_per_step: int = 24,
        candidate_actions: int = 8,
        rollout_depth: int = 4,
        seed: int = 0,
    ) -> None:
        if iterations_per_step <= 0 or candidate_actions <= 0:
            raise ValueError("iterations_per_step and candidate_actions must be positive")
        self.iterations_per_step = iterations_per_step
        self.candidate_actions = candidate_actions
        self.rollout_depth = rollout_depth
        self.rng = np.random.default_rng(seed)
        self._info: Dict = {}

    # ------------------------------------------------------------------ #
    def _compute(self, state: ClusterState, migration_limit: int) -> MigrationPlan:
        plan = MigrationPlan()
        simulations = 0
        for _ in range(migration_limit):
            action = self._search(state)
            if action is None:
                break
            simulations += self.iterations_per_step
            vm_id, dest_pm_id = action
            state.migrate_vm(vm_id, dest_pm_id)
            plan.append(Migration(vm_id=vm_id, dest_pm_id=dest_pm_id))
        self._info = {"simulations": simulations, "final_fragment_rate": state.fragment_rate()}
        return plan

    def _last_info(self) -> Dict:
        return dict(self._info)

    # ------------------------------------------------------------------ #
    def _search(self, state: ClusterState) -> Optional[Tuple[int, int]]:
        root = _Node(state=state.copy(), depth=0)
        root.untried = self._candidate_actions(root.state)
        if not root.untried:
            return None
        for _ in range(self.iterations_per_step):
            self._simulate(root)
        if not root.children:
            return root.untried[0] if root.untried else None
        best_action = max(root.children.items(), key=lambda item: item[1].visits)[0]
        # Only commit to moves that do not increase fragments.
        best_child = root.children[best_action]
        if best_child.mean_value < 0.0 and self._score(state, best_action)[0] < 0.0:
            return None
        return best_action

    def _simulate(self, root: _Node) -> None:
        node = root
        # Selection.
        while not node.untried and node.children:
            node = self._select_child(node)
        # Expansion.
        if node.untried:
            action = node.untried.pop(self.rng.integers(len(node.untried)))
            next_state = node.state.copy()
            gain = self._apply(next_state, action)
            child = _Node(state=next_state, depth=node.depth + 1, parent=node, action=action)
            child.untried = self._candidate_actions(next_state) if child.depth < self.rollout_depth else []
            node.children[action] = child
            node = child
            value = gain + self._rollout(next_state.copy(), self.rollout_depth - child.depth)
        else:
            value = 0.0
        # Backpropagation.
        while node is not None:
            node.visits += 1
            node.total_value += value
            node = node.parent

    def _select_child(self, node: _Node) -> _Node:
        log_visits = math.log(max(node.visits, 1))
        best_child = None
        best_score = -float("inf")
        for child in node.children.values():
            exploit = child.mean_value
            explore = _EXPLORATION * math.sqrt(log_visits / max(child.visits, 1))
            score = exploit + explore
            if score > best_score:
                best_score = score
                best_child = child
        return best_child

    def _rollout(self, state: ClusterState, depth: int) -> float:
        total = 0.0
        for _ in range(max(depth, 0)):
            actions = self._candidate_actions(state, limit=3)
            if not actions:
                break
            action = actions[0]
            total += self._apply(state, action)
        return total

    # ------------------------------------------------------------------ #
    def _candidate_actions(self, state: ClusterState, limit: Optional[int] = None) -> List[Tuple[int, int]]:
        """Top-K (vm, pm) pairs ranked by immediate fragment reduction (pruning)."""
        limit = limit or self.candidate_actions
        soa = state.arrays()
        total, _ = soa.move_scores(slice(None), state.fragment_cores)
        legal = np.flatnonzero(total < np.inf)
        best = legal[np.argsort(total.ravel()[legal], kind="stable")[:limit]]
        rows, columns = np.divmod(best, soa.num_pms)
        return [(int(vm_id), int(pm_id)) for vm_id, pm_id in zip(soa.vm_ids[rows], soa.pm_ids[columns])]

    def _score(self, state: ClusterState, action: Tuple[int, int]) -> Tuple[float, int]:
        """Fragment reduction of one move (``-inf`` if it is illegal) and the
        NUMA it lands on: one cell of the move scores."""
        vm_id, dest_pm_id = action
        soa = state.arrays()
        total, numa = soa.move_scores([soa.vm_row[vm_id]], state.fragment_cores)
        column = soa.pm_row[dest_pm_id]
        return -float(total[0, column]), int(numa[0, column])

    def _apply(self, state: ClusterState, action: Tuple[int, int]) -> float:
        gain, numa_id = self._score(state, action)
        if gain > -math.inf:
            state.migrate_vm(*action, dest_numa_id=numa_id)
        return gain
