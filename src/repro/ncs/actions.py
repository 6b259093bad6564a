"""NCS action spaces: simple-path actions per (source, destination) type.

An NCS action is a set of edges the agent buys, encoded as a
``frozenset`` of edge ids.  The paper's action space is all of ``2^E``,
but every best response is a simple path (buying extra positive-cost edges
only raises the payment), so optima and equilibria over *path actions*
coincide with those over ``2^E`` up to zero-cost padding that never
changes any social cost.  This module builds and caches those path-action
spaces.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..graphs import EdgeId, Graph, Node
from ..graphs.graph import WeightFunction
from ..graphs.paths import DEFAULT_MAX_PATHS, path_actions
from ..graphs.shortest_path import cheapest_path_back

NCSType = Tuple[Node, Node]
NCSAction = FrozenSet[EdgeId]

EMPTY_ACTION: NCSAction = frozenset()


class ActionCatalog:
    """Caches path-action lists per (source, destination) pair.

    ``actions_for((x, y))`` returns the simple ``x``-``y`` paths as
    frozensets (just ``[frozenset()]`` when ``x == y``).  The catalog also
    accumulates the union of all actions seen, which becomes the formal
    action space ``A_i`` handed to :class:`repro.core.BayesianGame`.
    """

    def __init__(
        self,
        graph: Graph,
        max_paths: int = DEFAULT_MAX_PATHS,
        max_path_edges: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.max_paths = max_paths
        self.max_path_edges = max_path_edges
        self._cache: Dict[NCSType, List[NCSAction]] = {}

    def actions_for(self, pair: NCSType) -> List[NCSAction]:
        """Simple-path actions connecting ``pair``; raises on dead pairs."""
        key = (pair[0], pair[1])
        if key not in self._cache:
            source, target = key
            found = path_actions(
                self.graph,
                source,
                target,
                max_paths=self.max_paths,
                max_edges=self.max_path_edges,
            )
            if not found:
                raise ValueError(
                    f"no path connects {source!r} to {target!r}; "
                    "the NCS type is infeasible"
                )
            self._cache[key] = found
        return list(self._cache[key])

    def union_space(self, pairs: List[NCSType]) -> List[NCSAction]:
        """Deduplicated union of the action lists of all ``pairs``.

        Order is deterministic: first-seen order across the given pairs.
        """
        seen = set()
        ordered: List[NCSAction] = []
        for pair in pairs:
            for action in self.actions_for(pair):
                if action not in seen:
                    seen.add(action)
                    ordered.append(action)
        return ordered


def edge_loads(actions: Tuple[NCSAction, ...]) -> Dict[EdgeId, int]:
    """Number of agents buying each edge under an action profile."""
    loads: Dict[EdgeId, int] = {}
    for action in actions:
        for eid in action:
            loads[eid] = loads.get(eid, 0) + 1
    return loads


def bought_edges(actions: Tuple[NCSAction, ...]) -> FrozenSet[EdgeId]:
    """All edges bought by at least one agent."""
    combined: set = set()
    for action in actions:
        combined |= action
    return frozenset(combined)


def cheapest_action(
    graph: Graph, pair: NCSType, weight: WeightFunction
) -> Tuple[NCSAction, float]:
    """``(action, cost)`` of a shortest ``pair`` path under ``weight``.

    Every NCS best response is this query under the agent's fair-share
    edge weights.  A trivial pair gives ``(EMPTY_ACTION, 0.0)`` and an
    unreachable one ``(EMPTY_ACTION, math.inf)``.
    """
    source, target = pair
    if source == target:
        return EMPTY_ACTION, 0.0
    path, cost = cheapest_path_back(graph, source, target, weight)
    if path is None:
        return EMPTY_ACTION, math.inf
    return frozenset(path), cost
