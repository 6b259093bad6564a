"""Lemma 3.2: the affine-plane Bayesian NCS game.

The construction: take a finite affine plane ``(X, L)`` of prime-power
order ``m``.  The directed graph has a source ``u``, one intermediate
vertex ``v_l`` per line (edge ``u -> v_l`` of cost 1), and one sink
``w_p`` per point (free edges ``v_l -> w_p`` for ``p in l``).  The game
has ``k = m + 1`` agents; nature draws a line ``l`` and a permutation
``pi`` of ``[m]`` uniformly: agent ``i <= m`` must reach ``w_p`` for the
``pi(i)``-th point ``p`` of ``l``; agent ``m + 1`` must reach ``v_l``.

Key structural facts (verified in the tests):

* agent ``m+1``'s action is forced (the single edge ``u -> v_l``);
* agent ``i``'s action is exactly a choice of a line through her point;
* any two of the first ``m`` agents' points determine the line ``l``
  itself, so *wrong* line edges are never shared;
* conditioned on her point ``p``, the true line is uniform over the
  ``m + 1`` lines through ``p`` — so **every** strategy profile has the
  same social cost ``1 + m * (1 - 1/(m+1)) = 1 + m^2/(m+1)``, and every
  strategy profile is a Bayesian equilibrium;
* in every underlying game, the unique Nash equilibrium is everybody on
  the true line's edge, costing exactly 1.

Hence ``optP = best-eqP = worst-eqP = 1 + m^2/(m+1) = Theta(k)`` while
``optC = best-eqC = worst-eqC = 1``: the ``Omega(k)`` existential lower
bounds of Table 1's directed column, on a ``Theta(k^2)``-vertex graph.

The paper's in-proof arithmetic states ``K(s) = m - 1`` via a ``1/m``
right-line probability; with the standard affine plane each point lies on
``m + 1`` lines (property (2) of the paper itself), giving ``1/(m+1)``
and ``K(s) = 1 + m^2/(m+1)``.  Both are ``Theta(m)``; we report the exact
value our enumeration confirms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._util import ExplosionError
from ..galois import AffinePlane, affine_plane
from ..graphs import EdgeId, Graph, Node
from ..ncs.actions import NCSType
from ..ncs.bayesian import BayesianNCSGame, uniform_bayesian_ncs


@dataclass
class AffinePlaneGame:
    """The Lemma 3.2 construction for one plane order ``m``."""

    order: int
    plane: AffinePlane
    graph: Graph
    source: Node
    line_nodes: List[Node]
    point_nodes: List[Node]
    line_edges: List[EdgeId]  # u -> v_l, cost 1, indexed by line

    @property
    def num_agents(self) -> int:
        return self.order + 1

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    # ------------------------------------------------------------------
    # closed forms (cross-checked against enumeration in tests/benches)
    # ------------------------------------------------------------------
    def profile_cost(self) -> float:
        """``K(s)`` of every strategy profile: ``1 + m^2/(m+1)``."""
        m = self.order
        return 1.0 + m * (1.0 - 1.0 / (m + 1))

    def state_equilibrium_cost(self) -> float:
        """Social cost of the unique per-state Nash equilibrium."""
        return 1.0

    def predicted_ratio(self) -> float:
        """``optP / worst-eqC`` (= the Lemma 3.2 separation)."""
        return self.profile_cost() / self.state_equilibrium_cost()

    # ------------------------------------------------------------------
    # type machinery
    # ------------------------------------------------------------------
    def type_profile(self, line: int, perm: Tuple[int, ...]) -> Tuple[NCSType, ...]:
        """The type profile ``t(l, pi)``."""
        points = self.plane.lines[line]
        pairs: List[NCSType] = []
        for i in range(self.order):
            point = points[perm[i]]
            pairs.append((self.source, self.point_nodes[point]))
        pairs.append((self.source, self.line_nodes[line]))
        return tuple(pairs)

    def all_type_profiles(self) -> List[Tuple[NCSType, ...]]:
        """Every ``t(l, pi)`` (``(m^2 + m) * m!`` of them)."""
        profiles = []
        for line in range(self.plane.line_count):
            for perm in permutations(range(self.order)):
                profiles.append(self.type_profile(line, perm))
        return profiles

    def sample_type_profile(
        self, rng: np.random.Generator
    ) -> Tuple[NCSType, ...]:
        line = int(rng.integers(self.plane.line_count))
        perm = tuple(int(x) for x in rng.permutation(self.order))
        return self.type_profile(line, perm)

    def bayesian_game(self, max_support: int = 5_000) -> BayesianNCSGame:
        """The full Bayesian NCS game (small orders only)."""
        profiles = self.all_type_profiles()
        if len(profiles) > max_support:
            raise ExplosionError("affine game support", len(profiles), max_support)
        return uniform_bayesian_ncs(
            self.graph, profiles, name=f"affine-plane-m{self.order}"
        )

    # ------------------------------------------------------------------
    # Monte Carlo evaluation of an arbitrary line-choice strategy
    # ------------------------------------------------------------------
    def simulate_profile_cost(
        self,
        rng: np.random.Generator,
        samples: int = 2_000,
        chooser: Optional[Dict[int, int]] = None,
    ) -> float:
        """Empirical ``K(s)`` for the strategy 'point p -> line chooser[p]'.

        ``chooser`` maps each point index to a line through it (defaults
        to the lowest-indexed line).  By the symmetry argument the answer
        must match :meth:`profile_cost` for *any* chooser — which is
        exactly what the tests check.
        """
        if chooser is None:
            chooser = {
                p: self.plane.lines_through(p)[0]
                for p in range(self.plane.point_count)
            }
        total = 0.0
        for _ in range(samples):
            line = int(rng.integers(self.plane.line_count))
            perm = rng.permutation(self.order)
            bought = {line}  # agent m+1 is forced onto the true line edge
            for i in range(self.order):
                point = self.plane.lines[line][int(perm[i])]
                bought.add(chooser[point])
            total += float(len(bought))
        return total / samples


def build_affine_plane_game(order: int) -> AffinePlaneGame:
    """Construct the Lemma 3.2 game for a prime-power ``order``."""
    plane = affine_plane(order)
    graph = Graph(directed=True)
    source: Node = "u"
    graph.add_node(source)
    line_nodes: List[Node] = []
    line_edges: List[EdgeId] = []
    for line_index in range(plane.line_count):
        node = ("line", line_index)
        line_nodes.append(node)
        line_edges.append(graph.add_edge(source, node, 1.0))
    point_nodes: List[Node] = []
    for point_index in range(plane.point_count):
        node = ("point", point_index)
        point_nodes.append(node)
    for line_index, line in enumerate(plane.lines):
        for point_index in line:
            graph.add_edge(line_nodes[line_index], point_nodes[point_index], 0.0)
    return AffinePlaneGame(
        order=order,
        plane=plane,
        graph=graph,
        source=source,
        line_nodes=line_nodes,
        point_nodes=point_nodes,
        line_edges=line_edges,
    )
