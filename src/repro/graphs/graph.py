"""Weighted multigraphs (directed and undirected) with non-negative edge costs.

This is the base substrate for every network cost sharing game in the
package.  The design goals are:

* **Multi-edge support.**  Several of the paper's gadgets are most naturally
  expressed with parallel edges (e.g. a cheap and an expensive link between
  the same pair of vertices), so edges are first-class objects addressed by
  integer ids rather than by endpoint pairs.
* **Stable, hashable identities.**  NCS actions are ``frozenset``s of edge
  ids, so actions stay hashable and cheap to compare.
* **No third-party dependencies.**  Shortest paths, MSTs, Steiner solvers,
  and traversals live in sibling modules; ``networkx`` is used only in the
  test-suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

Node = Hashable
EdgeId = int


@dataclass(frozen=True)
class Edge:
    """A single edge: ``tail -> head`` when directed, ``{tail, head}`` otherwise.

    ``eid`` is unique within its graph and is the canonical handle for the
    edge in actions, paths, and Steiner solutions.
    """

    eid: EdgeId
    tail: Node
    head: Node
    cost: float

    def other(self, node: Node) -> Node:
        """Return the endpoint of this edge that is not ``node``.

        For self-loops, returns ``node`` itself.  Raises ``ValueError`` when
        ``node`` is not an endpoint.
        """
        if node == self.tail:
            return self.head
        if node == self.head:
            return self.tail
        raise ValueError(f"node {node!r} is not an endpoint of edge {self.eid}")

    def endpoints(self) -> Tuple[Node, Node]:
        return (self.tail, self.head)


class Graph:
    """A weighted multigraph.

    Parameters
    ----------
    directed:
        When True, edges are ordered pairs and traversal respects
        orientation.  When False, every edge may be traversed both ways.

    Notes
    -----
    Edge costs must be non-negative and finite: NCS games express
    disconnection by an infinite *agent cost*, never by infinite *edge
    costs*, and all shortest-path routines assume non-negativity.
    """

    def __init__(self, directed: bool = False) -> None:
        self.directed = directed
        self._edges: Dict[EdgeId, Edge] = {}
        self._adjacency: Dict[Node, List[EdgeId]] = {}
        # For directed graphs we additionally track incoming edges so that
        # reverse traversals do not need a full scan.
        self._in_adjacency: Dict[Node, List[EdgeId]] = {}
        self._next_eid: EdgeId = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Ensure ``node`` exists (isolated nodes are allowed)."""
        if node not in self._adjacency:
            self._adjacency[node] = []
            self._in_adjacency[node] = []
        return node

    def add_edge(self, tail: Node, head: Node, cost: float) -> EdgeId:
        """Insert an edge and return its id.

        Parallel edges and self-loops are allowed; costs must be finite and
        non-negative.
        """
        if cost < 0:
            raise ValueError(f"edge cost must be non-negative, got {cost}")
        if cost != cost or cost == float("inf"):  # NaN or +inf
            raise ValueError(f"edge cost must be finite, got {cost}")
        self.add_node(tail)
        self.add_node(head)
        eid = self._next_eid
        self._next_eid += 1
        edge = Edge(eid=eid, tail=tail, head=head, cost=float(cost))
        self._edges[eid] = edge
        self._adjacency[tail].append(eid)
        if self.directed:
            self._in_adjacency[head].append(eid)
        else:
            if head != tail:
                self._adjacency[head].append(eid)
        return eid

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        return list(self._adjacency.keys())

    @property
    def node_count(self) -> int:
        return len(self._adjacency)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self) -> List[Edge]:
        """All edges, in insertion order."""
        return [self._edges[eid] for eid in sorted(self._edges)]

    def edge(self, eid: EdgeId) -> Edge:
        try:
            return self._edges[eid]
        except KeyError:
            raise KeyError(f"no edge with id {eid}") from None

    def edge_ids(self) -> List[EdgeId]:
        return sorted(self._edges)

    def has_node(self, node: Node) -> bool:
        return node in self._adjacency

    def out_edges(self, node: Node) -> List[Edge]:
        """Edges usable to leave ``node``.

        For undirected graphs this is every incident edge; for directed
        graphs, edges whose tail is ``node``.
        """
        if node not in self._adjacency:
            raise KeyError(f"unknown node {node!r}")
        return [self._edges[eid] for eid in self._adjacency[node]]

    def in_edges(self, node: Node) -> List[Edge]:
        """Edges usable to *enter* ``node`` (directed graphs only)."""
        if not self.directed:
            return self.out_edges(node)
        if node not in self._in_adjacency:
            raise KeyError(f"unknown node {node!r}")
        return [self._edges[eid] for eid in self._in_adjacency[node]]

    def neighbors(self, node: Node) -> List[Node]:
        """Distinct nodes reachable from ``node`` along a single edge."""
        seen: Set[Node] = set()
        ordered: List[Node] = []
        for edge in self.out_edges(node):
            nbr = edge.head if edge.tail == node else edge.tail
            if self.directed:
                nbr = edge.head
            if nbr not in seen:
                seen.add(nbr)
                ordered.append(nbr)
        return ordered

    def degree(self, node: Node) -> int:
        return len(self._adjacency[node])

    def total_cost(self, edge_ids: Optional[Iterable[EdgeId]] = None) -> float:
        """Sum of costs of ``edge_ids`` (all edges when omitted).

        Each edge id is counted once even if supplied multiple times.
        """
        if edge_ids is None:
            return sum(edge.cost for edge in self._edges.values())
        unique = set(edge_ids)
        return sum(self._edges[eid].cost for eid in unique)

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def _rebuild(self, edge_ids: Iterable[EdgeId], flip: bool = False) -> "Graph":
        """A graph with every node of this one and the given edges, in id
        order (re-numbered from 0), each reversed when ``flip``."""
        clone = Graph(directed=self.directed)
        for node in self._adjacency:
            clone.add_node(node)
        for eid in sorted(set(edge_ids)):
            edge = self.edge(eid)
            tail, head = (edge.head, edge.tail) if flip else (edge.tail, edge.head)
            clone.add_edge(tail, head, edge.cost)
        return clone

    def copy(self) -> "Graph":
        return self._rebuild(self._edges)

    def reverse(self) -> "Graph":
        """Return the graph with every edge reversed (identity if undirected)."""
        return self._rebuild(self._edges, flip=self.directed)

    def subgraph(self, edge_ids: Iterable[EdgeId]) -> "Graph":
        """Graph induced by the given edges (plus all original nodes)."""
        return self._rebuild(edge_ids)

    # ------------------------------------------------------------------
    # queries used by NCS feasibility checks
    # ------------------------------------------------------------------
    def reachable(
        self,
        source: Node,
        allowed_edges: Optional[FrozenSet[EdgeId] | Set[EdgeId]] = None,
    ) -> Set[Node]:
        """Set of nodes reachable from ``source`` using only ``allowed_edges``.

        ``allowed_edges=None`` means every edge is usable.  Orientation is
        respected in directed graphs.
        """
        if source not in self._adjacency:
            raise KeyError(f"unknown node {source!r}")
        seen: Set[Node] = {source}
        stack: List[Node] = [source]
        while stack:
            node = stack.pop()
            for eid in self._adjacency[node]:
                if allowed_edges is not None and eid not in allowed_edges:
                    continue
                edge = self._edges[eid]
                if self.directed:
                    nxt = edge.head
                else:
                    nxt = edge.other(node)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def connects(
        self,
        source: Node,
        target: Node,
        allowed_edges: Optional[FrozenSet[EdgeId] | Set[EdgeId]] = None,
    ) -> bool:
        """True when ``allowed_edges`` contain a ``source -> target`` path.

        A node trivially connects to itself.
        """
        if source == target:
            return self.has_node(source)
        # Early exit BFS/DFS.
        if source not in self._adjacency:
            raise KeyError(f"unknown node {source!r}")
        if target not in self._adjacency:
            raise KeyError(f"unknown node {target!r}")
        seen: Set[Node] = {source}
        stack: List[Node] = [source]
        while stack:
            node = stack.pop()
            for eid in self._adjacency[node]:
                if allowed_edges is not None and eid not in allowed_edges:
                    continue
                edge = self._edges[eid]
                nxt = edge.head if self.directed else edge.other(node)
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adjacency

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adjacency)

    def __len__(self) -> int:
        return len(self._adjacency)

    def __repr__(self) -> str:
        kind = "DiGraph" if self.directed else "Graph"
        return f"<{kind} |V|={self.node_count} |E|={self.edge_count}>"


def weight_by_cost(edge: Edge) -> float:
    """The default edge-weight function: the edge's own cost."""
    return edge.cost


WeightFunction = Callable[[Edge], float]
