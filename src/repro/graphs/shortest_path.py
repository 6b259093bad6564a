"""Shortest-path algorithms on :class:`repro.graphs.graph.Graph`.

Dijkstra (binary-heap) is the workhorse: NCS best responses are shortest
paths under *modified* edge weights (expected cost shares), so every routine
accepts an optional ``weight`` override mapping an :class:`Edge` to a
non-negative float.  Bellman-Ford is provided for independent verification
in tests; all-pairs distances are repeated Dijkstra runs.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .graph import Edge, EdgeId, Graph, Node, WeightFunction, weight_by_cost


def dijkstra(
    graph: Graph,
    source: Node,
    weight: WeightFunction = weight_by_cost,
    targets: Optional[Iterable[Node]] = None,
) -> Tuple[Dict[Node, float], Dict[Node, Optional[EdgeId]]]:
    """Single-source shortest paths.

    Returns ``(dist, parent_edge)`` where ``dist[v]`` is the cost of a
    cheapest ``source -> v`` path (unreachable nodes are absent) and
    ``parent_edge[v]`` is the id of the final edge on one such path
    (``None`` for the source itself).

    When ``targets`` is given, the search stops once all targets are
    settled, which keeps best-response computations cheap on large graphs.
    """
    if source not in graph:
        raise KeyError(f"unknown source {source!r}")
    remaining: Optional[Set[Node]] = set(targets) if targets is not None else None
    if remaining is not None:
        remaining.discard(source)

    dist: Dict[Node, float] = {source: 0.0}
    parent: Dict[Node, Optional[EdgeId]] = {source: None}
    settled: Set[Node] = set()
    heap: List[Tuple[float, int, Node]] = [(0.0, 0, source)]
    counter = 1  # tie-breaker keeps heap comparisons away from Node types

    while heap:
        d, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for edge in graph.out_edges(node):
            nxt = edge.head if graph.directed else edge.other(node)
            w = weight(edge)
            if w < 0:
                raise ValueError(
                    f"negative weight {w} on edge {edge.eid}; use bellman_ford"
                )
            nd = d + w
            if nxt not in dist or nd < dist[nxt] - 0.0:
                if nxt not in settled and (nxt not in dist or nd < dist[nxt]):
                    dist[nxt] = nd
                    parent[nxt] = edge.eid
                    heapq.heappush(heap, (nd, counter, nxt))
                    counter += 1
    return dist, parent


def shortest_path_cost(
    graph: Graph,
    source: Node,
    target: Node,
    weight: WeightFunction = weight_by_cost,
) -> float:
    """Cheapest ``source -> target`` cost (``math.inf`` when unreachable)."""
    if source == target:
        return 0.0
    dist, _ = dijkstra(graph, source, weight=weight, targets=[target])
    return dist.get(target, math.inf)


def cheapest_path_back(
    graph: Graph,
    source: Node,
    target: Node,
    weight: WeightFunction = weight_by_cost,
) -> Tuple[Optional[List[EdgeId]], float]:
    """A cheapest ``source -> target`` path as ``(edge_ids, cost)``.

    The edge ids run from ``target`` back to ``source``, the order of the
    walk up Dijkstra's parent map; NCS actions are built from them in
    that order, which fixes their ``frozenset`` iteration order.
    ``(None, math.inf)`` when unreachable; a trivial ``source == target``
    query gives ``([], 0.0)``.
    """
    dist, parent = dijkstra(graph, source, weight=weight, targets=[target])
    if target not in dist:
        return None, math.inf
    path: List[EdgeId] = []
    node = target
    while node != source:
        eid = parent[node]
        assert eid is not None
        path.append(eid)
        edge = graph.edge(eid)
        node = edge.tail if graph.directed else edge.other(node)
    return path, dist[target]


def shortest_path_edges(
    graph: Graph,
    source: Node,
    target: Node,
    weight: WeightFunction = weight_by_cost,
) -> Optional[List[EdgeId]]:
    """Edge ids of a cheapest path, in order; ``None`` when unreachable.

    A trivial ``source == target`` query returns the empty list.
    """
    if source == target:
        return []
    path, _ = cheapest_path_back(graph, source, target, weight)
    return None if path is None else path[::-1]


def bellman_ford(
    graph: Graph,
    source: Node,
    weight: WeightFunction = weight_by_cost,
) -> Dict[Node, float]:
    """Bellman-Ford distances from ``source``.

    Used in tests as an independent oracle for Dijkstra.  Raises
    ``ValueError`` on a negative cycle reachable from ``source``.
    """
    if source not in graph:
        raise KeyError(f"unknown source {source!r}")
    dist: Dict[Node, float] = {node: math.inf for node in graph}
    dist[source] = 0.0

    # Build a directed relaxation list: undirected edges relax both ways.
    relaxations: List[Tuple[Node, Node, float]] = []
    for edge in graph.edges():
        w = weight(edge)
        relaxations.append((edge.tail, edge.head, w))
        if not graph.directed:
            relaxations.append((edge.head, edge.tail, w))

    for _ in range(max(0, len(graph) - 1)):
        changed = False
        for tail, head, w in relaxations:
            if dist[tail] + w < dist[head]:
                dist[head] = dist[tail] + w
                changed = True
        if not changed:
            break
    else:
        pass
    for tail, head, w in relaxations:
        if dist[tail] + w < dist[head] - 1e-12:
            raise ValueError("negative cycle detected")
    return {node: d for node, d in dist.items() if not math.isinf(d)}


def all_pairs_shortest_paths(
    graph: Graph,
    weight: WeightFunction = weight_by_cost,
) -> Dict[Node, Dict[Node, float]]:
    """All-pairs distances via repeated Dijkstra.

    Unreachable pairs are absent from the inner mapping.
    """
    return {node: dijkstra(graph, node, weight=weight)[0] for node in graph}


def eccentricity(graph: Graph, node: Node) -> float:
    """Maximum finite distance from ``node`` (0 for an isolated node)."""
    dist, _ = dijkstra(graph, node)
    return max(dist.values(), default=0.0)


def graph_diameter(graph: Graph) -> float:
    """Largest finite pairwise distance in the graph."""
    best = 0.0
    for node in graph:
        best = max(best, eccentricity(graph, node))
    return best
