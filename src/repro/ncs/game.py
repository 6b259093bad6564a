"""Complete-information network cost sharing games (paper Section 2).

An NCS game is a graph with edge costs and one (source, destination) pair
per agent.  Agents buy edge sets; each edge's cost is split equally among
its buyers (fair / Shapley sharing); an agent pays her shares if her edges
contain a source-destination path and ``+inf`` otherwise.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .._util import lt
from ..graphs import EdgeId, Graph, Node
from ..graphs.shortest_path import shortest_path_cost, shortest_path_edges
from ..graphs.steiner import minimum_connection_cost
from .actions import EMPTY_ACTION, NCSAction, NCSType, cheapest_action


class NCSGame:
    """A ``k``-agent complete-information NCS game.

    Parameters
    ----------
    graph:
        Host graph (directed or undirected) with non-negative edge costs.
    pairs:
        One ``(source, destination)`` pair per agent.  ``source ==
        destination`` means the agent needs nothing and her cheapest action
        is the empty set.

    The share rule is written once, for the weighted variant
    (:class:`repro.ncs.weighted.WeightedNCSGame`): agent ``i`` pays
    ``c(e) * w_i / W_e`` of each bought edge ``e``, where ``W_e`` sums its
    buyers' weights.  Here every weight is ``1.0``, which is fair sharing
    ``c(e) / n_e`` bit for bit.
    """

    def __init__(
        self, graph: Graph, pairs: Sequence[NCSType], name: str = ""
    ) -> None:
        self.graph = graph
        self.pairs: List[NCSType] = [tuple(pair) for pair in pairs]
        self.name = name
        self.weights: List[float] = [1.0] * len(self.pairs)
        for x, y in self.pairs:
            if not graph.has_node(x) or not graph.has_node(y):
                raise ValueError(f"pair ({x!r}, {y!r}) mentions unknown nodes")

    @property
    def num_agents(self) -> int:
        return len(self.pairs)

    # ------------------------------------------------------------------
    # payments and costs
    # ------------------------------------------------------------------
    def _weight_loads(
        self, actions: Tuple[NCSAction, ...], exclude: Optional[int] = None
    ) -> Dict[EdgeId, float]:
        """Total buyer weight per edge, optionally skipping one agent."""
        loads: Dict[EdgeId, float] = {}
        for agent, action in enumerate(actions):
            if agent == exclude:
                continue
            for eid in action:
                loads[eid] = loads.get(eid, 0.0) + self.weights[agent]
        return loads

    def payment(self, agent: int, actions: Tuple[NCSAction, ...]) -> float:
        """Total (weighted-share) payment of ``agent``, regardless of
        feasibility."""
        loads = self._weight_loads(actions)
        w_i = self.weights[agent]
        return sum(
            self.graph.edge(eid).cost * w_i / loads[eid] for eid in actions[agent]
        )

    def is_feasible_for(self, agent: int, action: NCSAction) -> bool:
        """Does ``action`` contain a path for ``agent``'s pair?"""
        source, target = self.pairs[agent]
        return self.graph.connects(source, target, allowed_edges=set(action))

    def cost(self, agent: int, actions: Tuple[NCSAction, ...]) -> float:
        """``C_i(a)``: the payment when connected, ``+inf`` otherwise."""
        if not self.is_feasible_for(agent, actions[agent]):
            return math.inf
        return self.payment(agent, actions)

    def social_cost(self, actions: Tuple[NCSAction, ...]) -> float:
        """``K(a) = sum_i C_i(a)``; equals the bought edges' total cost when
        every agent is connected."""
        total = 0.0
        for agent in range(self.num_agents):
            cost = self.cost(agent, actions)
            if math.isinf(cost):
                return math.inf
            total += cost
        return total

    # ------------------------------------------------------------------
    # best responses via shortest paths
    # ------------------------------------------------------------------
    def best_response(
        self, agent: int, actions: Tuple[NCSAction, ...]
    ) -> Tuple[NCSAction, float]:
        """The cheapest action of ``agent`` against the others.

        With others fixed, buying edge ``e`` costs
        ``c(e) * w_i / (w_i + W_e^{-i})`` (``c(e) / (1 + others_on(e))`` at
        unit weights), additive over edges, so the optimal action is a
        shortest path under those weights (the empty set for a trivial
        pair).  Returns ``(action, cost)``.
        """
        others = self._weight_loads(actions, exclude=agent)
        w_i = self.weights[agent]

        def weight(edge) -> float:
            return edge.cost * w_i / (w_i + others.get(edge.eid, 0.0))

        return cheapest_action(self.graph, self.pairs[agent], weight)

    def is_nash_equilibrium(self, actions: Tuple[NCSAction, ...]) -> bool:
        """Exact Nash check using shortest-path best responses.

        No action enumeration: deviations to arbitrary subsets of ``2^E``
        are dominated by the shortest-path deviation computed here.
        """
        for agent in range(self.num_agents):
            current = self.cost(agent, actions)
            _, best = self.best_response(agent, actions)
            if lt(best, current):
                return False
        return True

    def best_response_dynamics(
        self,
        initial: Optional[Tuple[NCSAction, ...]] = None,
        max_rounds: int = 10_000,
    ) -> Tuple[NCSAction, ...]:
        """Iterated best responses; converges by Rosenthal's potential."""
        if initial is None:
            initial = tuple(
                self.shortest_path_action(agent) for agent in range(self.num_agents)
            )
        actions = self._improve(initial, max_rounds)
        if actions is None:
            raise RuntimeError(
                "best-response dynamics did not converge (should be impossible "
                "in a congestion game)"
            )
        return actions

    def _improve(
        self, initial: Tuple[NCSAction, ...], max_rounds: int
    ) -> Optional[Tuple[NCSAction, ...]]:
        """Rounds of strict best-response moves from ``initial``, agent by
        agent, until a round moves nobody; ``None`` when every one of the
        ``max_rounds`` rounds moved somebody."""
        actions = tuple(initial)
        for _ in range(max_rounds):
            changed = False
            for agent in range(self.num_agents):
                current = self.cost(agent, actions)
                best_action, best_cost = self.best_response(agent, actions)
                if lt(best_cost, current):
                    mutated = list(actions)
                    mutated[agent] = best_action
                    actions = tuple(mutated)
                    changed = True
            if not changed:
                return actions
        return None

    def shortest_path_action(self, agent: int) -> NCSAction:
        """The raw-cost shortest path of ``agent``'s pair (greedy seed)."""
        source, target = self.pairs[agent]
        if source == target:
            return EMPTY_ACTION
        path = shortest_path_edges(self.graph, source, target)
        if path is None:
            raise ValueError(f"pair ({source!r}, {target!r}) is disconnected")
        return frozenset(path)

    # ------------------------------------------------------------------
    # optima and distances
    # ------------------------------------------------------------------
    def optimum_cost(self) -> float:
        """``min_a K(a)``: the exact minimum connecting-subgraph cost (the
        same at any weights: sharing only transfers cost)."""
        return minimum_connection_cost(self.graph, self.pairs)

    def distance(self, agent: int) -> float:
        """``dist_G(t_i)``: the agent's stand-alone shortest-path cost."""
        source, target = self.pairs[agent]
        return shortest_path_cost(self.graph, source, target)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<NCSGame{label} k={self.num_agents} |E|={self.graph.edge_count}>"
