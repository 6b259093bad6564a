"""Steiner trees, Steiner forests, and minimum connecting subgraphs.

The denominator quantities of the paper (``optC``) are, per type profile,
the minimum total cost of an edge set connecting every agent's source to
her destination — a Steiner forest in undirected graphs and a Steiner
network in directed ones.  This module provides:

* :func:`steiner_tree_exact` — exact undirected Steiner tree cost via the
  Dreyfus-Wagner dynamic program, ``O(3^t n + 2^t n^2)`` for ``t``
  terminals.
* :func:`directed_steiner_tree_exact` — the directed (arborescence)
  analogue, exact, used when all agents share one source.
* :func:`steiner_forest_exact` — exact undirected Steiner *forest* cost by
  minimizing over set partitions of the terminal pairs (each block is a
  Dreyfus-Wagner instance over one distance matrix built per call).
* :func:`connecting_subgraph_bnb` — exact minimum connecting subgraph via
  branch-and-bound over edge subsets; works for directed and undirected
  graphs and recovers the edge set, guarded by an edge-count limit.
* :func:`steiner_tree_mst_approx` and :func:`union_of_shortest_paths` —
  polynomial upper bounds used to seed the branch-and-bound and to handle
  instances beyond exact reach.

The three exact tree solvers share one DP, :func:`_dreyfus_wagner`, over
one distance matrix, :func:`_distance_matrix`, whose row ``u`` is what a
tree pays from ``u``: the all-pairs matrix when undirected, its transpose
when directed, so the directed case is the undirected DP read at the root.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .._util import ExplosionError
from .graph import EdgeId, Graph, Node
from .mst import kruskal_mst
from .shortest_path import (
    all_pairs_shortest_paths,
    shortest_path_cost,
    shortest_path_edges,
)

#: Guard on the number of terminals in the Dreyfus-Wagner DP.
MAX_DW_TERMINALS = 12

#: Guard on edge count for exhaustive branch-and-bound.
MAX_BNB_EDGES = 26

#: Guard on the number of terminal pairs in exact Steiner forest.
MAX_FOREST_PAIRS = 9


def _distance_matrix(graph: Graph) -> Tuple[List[List[float]], Dict[Node, int]]:
    """``(D, index)``: row ``index[u]`` of ``D`` is what a tree pays from ``u``.

    That is ``dist(u, v)`` when undirected, and ``dist(v, u)`` when
    directed (an out-tree rooted at ``v`` walks to ``u``): the transpose
    of the all-pairs matrix.  Unreachable entries are ``math.inf``.
    """
    nodes = graph.nodes
    index = {node: i for i, node in enumerate(nodes)}
    D = [[math.inf] * len(nodes) for _ in nodes]
    for node, dist in all_pairs_shortest_paths(graph).items():
        row = D[index[node]]
        for other, value in dist.items():
            row[index[other]] = value
    if graph.directed:
        D = [list(column) for column in zip(*D)]
    return D, index


def _dreyfus_wagner(
    D: List[List[float]], index: Dict[Node, int], terminals: List[Node]
) -> List[float]:
    """The Dreyfus-Wagner DP over the distance matrix ``D``.

    Returns the row of the full terminal set: entry ``v`` is the cheapest
    tree containing ``v`` that reaches every (distinct) terminal — for a
    directed ``D`` (see :func:`_distance_matrix`), the cheapest
    out-arborescence rooted at ``v``.
    """
    if len(terminals) > MAX_DW_TERMINALS:
        raise ExplosionError(
            "Dreyfus-Wagner terminals", len(terminals), MAX_DW_TERMINALS
        )
    n = len(D)
    full = (1 << len(terminals)) - 1
    # dp[mask][v] = min cost tree containing terminal set `mask` and node v.
    dp = [[math.inf] * n for _ in range(full + 1)]
    for i, term in enumerate(terminals):
        dp[1 << i] = list(D[index[term]])

    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:  # singleton: base case already done
            continue
        drow = dp[mask]
        # Merge two sub-trees at a common node.
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:  # visit each unordered split once
                srow, orow = dp[sub], dp[other]
                for v in range(n):
                    candidate = srow[v] + orow[v]
                    if candidate < drow[v]:
                        drow[v] = candidate
            sub = (sub - 1) & mask
        # Metric-closure relaxation: attach via a shortest path.  A single
        # pass is exact because `D` satisfies the triangle inequality,
        # so chained relaxations collapse into one hop.
        for u in range(n):
            du = drow[u]
            if math.isinf(du):
                continue
            urow = D[u]
            for v in range(n):
                candidate = du + urow[v]
                if candidate < drow[v]:
                    drow[v] = candidate
    return dp[full]


def steiner_tree_exact(graph: Graph, terminals: Sequence[Node]) -> float:
    """Exact minimum Steiner tree cost over the given terminals.

    Undirected graphs only; returns ``math.inf`` when the terminals cannot
    be connected.  Duplicated terminals are deduplicated; zero or one
    terminal costs 0.
    """
    if graph.directed:
        raise ValueError("steiner_tree_exact requires an undirected graph")
    distinct = list(dict.fromkeys(terminals))
    if len(distinct) <= 1:
        return 0.0
    if len(distinct) == 2:
        return shortest_path_cost(graph, distinct[0], distinct[1])
    return min(_dreyfus_wagner(*_distance_matrix(graph), distinct))


def directed_steiner_tree_exact(
    graph: Graph, root: Node, terminals: Sequence[Node]
) -> float:
    """Exact minimum-cost arborescence from ``root`` covering ``terminals``.

    Directed graphs only.  Returns ``math.inf`` when some terminal is
    unreachable from ``root``.  This is the Dreyfus-Wagner DP run on
    directed distances; it is exact because every minimal solution is an
    out-arborescence.
    """
    if not graph.directed:
        raise ValueError("directed_steiner_tree_exact requires a directed graph")
    distinct = [t for t in dict.fromkeys(terminals) if t != root]
    if not distinct:
        return 0.0
    D, index = _distance_matrix(graph)
    return _dreyfus_wagner(D, index, distinct)[index[root]]


def _set_partitions(items: List[int]):
    """Yield set partitions of ``items`` as lists of lists (Bell recursion)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        # `first` joins an existing block...
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1:]
        # ...or starts its own.
        yield [[first]] + partition


def steiner_forest_exact(
    graph: Graph, pairs: Sequence[Tuple[Node, Node]]
) -> float:
    """Exact minimum Steiner forest cost for the (undirected) pairs.

    Each pair ``(x, y)`` must end up in a common component.  Trivial pairs
    (``x == y``) cost nothing.  Exactness follows from minimizing over all
    set partitions of the pairs: the components of an optimal forest induce
    such a partition, and each block's optimum is a Steiner tree.
    """
    if graph.directed:
        raise ValueError(
            "steiner_forest_exact requires an undirected graph; "
            "use connecting_subgraph_bnb for directed instances"
        )
    active = [(x, y) for (x, y) in pairs if x != y]
    if not active:
        return 0.0
    if len(active) > MAX_FOREST_PAIRS:
        raise ExplosionError("Steiner forest pairs", len(active), MAX_FOREST_PAIRS)

    D, index = _distance_matrix(graph)

    def tree_cost(block: List[int]) -> float:
        # Each block holds a pair with x != y: two or more terminals.
        distinct = list(dict.fromkeys(node for i in block for node in active[i]))
        if len(distinct) == 2:
            return D[index[distinct[0]]][index[distinct[1]]]
        return min(_dreyfus_wagner(D, index, distinct))

    best = math.inf
    for partition in _set_partitions(list(range(len(active)))):
        total = 0.0
        for block in partition:
            total += tree_cost(block)
            if total >= best:
                break
        best = min(best, total)
    return best


def union_of_shortest_paths(
    graph: Graph, pairs: Sequence[Tuple[Node, Node]]
) -> Tuple[FrozenSet[EdgeId], float]:
    """Union of per-pair shortest paths: a feasible connecting subgraph.

    Returns ``(edge_ids, total_cost)``; cost is ``math.inf`` when some pair
    is disconnected in the host graph.  Used as a heuristic upper bound and
    as a canonical "uncoordinated benevolent" profile in experiments.
    """
    chosen: Set[EdgeId] = set()
    for x, y in pairs:
        if x == y:
            continue
        path = shortest_path_edges(graph, x, y)
        if path is None:
            return frozenset(), math.inf
        chosen.update(path)
    return frozenset(chosen), graph.total_cost(chosen)


def steiner_tree_mst_approx(
    graph: Graph, terminals: Sequence[Node]
) -> Tuple[FrozenSet[EdgeId], float]:
    """Classic 2-approximation: MST of the terminal metric closure, expanded.

    Returns ``(edge_ids, total_cost)`` of the resulting subgraph (after
    deduplicating shared edges, so the reported cost can beat the closure
    MST weight).  Undirected graphs only.
    """
    if graph.directed:
        raise ValueError("steiner_tree_mst_approx requires an undirected graph")
    distinct = list(dict.fromkeys(terminals))
    if len(distinct) <= 1:
        return frozenset(), 0.0

    closure = Graph(directed=False)
    path_for: Dict[Tuple[Node, Node], List[EdgeId]] = {}
    for a, b in combinations(distinct, 2):
        path = shortest_path_edges(graph, a, b)
        if path is None:
            return frozenset(), math.inf
        eid = closure.add_edge(a, b, graph.total_cost(path))
        path_for[(a, b)] = path
    mst_edges, _ = kruskal_mst(closure)
    chosen: Set[EdgeId] = set()
    for closure_eid in mst_edges:
        closure_edge = closure.edge(closure_eid)
        chosen.update(path_for[(closure_edge.tail, closure_edge.head)])
    return frozenset(chosen), graph.total_cost(chosen)


def connecting_subgraph_bnb(
    graph: Graph,
    pairs: Sequence[Tuple[Node, Node]],
    max_edges: int = MAX_BNB_EDGES,
) -> Tuple[FrozenSet[EdgeId], float]:
    """Exact minimum-cost edge set connecting every ``(source, target)`` pair.

    Works for directed and undirected graphs and recovers the optimal edge
    set.  Exhaustive branch-and-bound over edges (most expensive decided
    first, exclusion tried before inclusion) with two prunes: cost-bound
    against the incumbent and feasibility of the optimistic relaxation
    (chosen plus all undecided edges).  Guarded by ``max_edges``.
    """
    active = [(x, y) for (x, y) in pairs if x != y]
    if not active:
        return frozenset(), 0.0
    if graph.edge_count > max_edges:
        raise ExplosionError("branch-and-bound edges", graph.edge_count, max_edges)

    # Incumbent from the shortest-path union heuristic.
    heuristic_edges, heuristic_cost = union_of_shortest_paths(graph, active)
    if math.isinf(heuristic_cost):
        return frozenset(), math.inf
    best_cost = heuristic_cost
    best_edges: Set[EdgeId] = set(heuristic_edges)

    order = sorted(graph.edge_ids(), key=lambda eid: -graph.edge(eid).cost)

    def feasible(allowed: Set[EdgeId]) -> bool:
        return all(graph.connects(x, y, allowed_edges=allowed) for x, y in active)

    def descend(i: int, chosen: Set[EdgeId], chosen_cost: float) -> None:
        nonlocal best_cost, best_edges
        if chosen_cost >= best_cost:
            return
        if i == len(order):
            if feasible(chosen):
                best_cost = chosen_cost
                best_edges = set(chosen)
            return
        undecided = set(order[i:])
        if not feasible(chosen | undecided):
            return
        eid = order[i]
        # Exclude first: steers the search toward cheap solutions.
        descend(i + 1, chosen, chosen_cost)
        chosen.add(eid)
        descend(i + 1, chosen, chosen_cost + graph.edge(eid).cost)
        chosen.discard(eid)

    descend(0, set(), 0.0)
    # Final feasibility sanity: the incumbent always connects all pairs.
    assert feasible(best_edges)
    return frozenset(best_edges), best_cost


def minimum_connection_cost(
    graph: Graph,
    pairs: Sequence[Tuple[Node, Node]],
    common_source: Optional[Node] = None,
) -> float:
    """Best available *exact* minimum connecting-subgraph cost.

    Dispatches to the cheapest exact solver that applies:

    * undirected -> partition-based Steiner forest,
    * directed with a common source -> directed Dreyfus-Wagner,
    * anything else -> branch-and-bound (edge-count guarded).

    ``common_source`` may be supplied to force the arborescence solver; it
    is validated against the pairs.
    """
    active = [(x, y) for (x, y) in pairs if x != y]
    if not active:
        return 0.0
    if not graph.directed:
        try:
            return steiner_forest_exact(graph, active)
        except ExplosionError:
            return connecting_subgraph_bnb(graph, active)[1]
    sources = {x for x, _ in active}
    if common_source is not None and sources - {common_source}:
        raise ValueError("pairs do not all share the declared common source")
    if len(sources) == 1:
        root = next(iter(sources))
        return directed_steiner_tree_exact(graph, root, [y for _, y in active])
    return connecting_subgraph_bnb(graph, active)[1]
