"""Lemma 3.5: from online Steiner trees to Bayesian NCS games.

The reduction: given a distribution ``q`` over request sequences
``sigma = <v_1, ..., v_|sigma|>`` on a graph with root ``v_0``, build the
Bayesian NCS game whose agent ``i`` has type ``(v_i, v_0)`` when
``i <= |sigma|`` and the trivial type ``(v_0, v_0)`` otherwise, with
``p(t_sigma) = q(sigma)``.  A strategy profile fixes, per agent and
revealed vertex, an edge set connecting it to the root — exactly a
deterministic online Steiner algorithm of the "oblivious routing" kind —
so ``optP(G_q)/optC(G_q)`` inherits the randomized online lower bound:
``Omega(log n)`` on the Imase-Waxman diamond distribution.

Numerically we expose three observables:

* the **sub-sampled game** (small levels, few scenarios) on which the
  exact machinery runs end-to-end;
* the **fixed-shortest-path profile**, the canonical strategy profile any
  uncoordinated benevolent agent would play, whose expected social cost
  grows like ``Omega(levels)`` against ``optC ~ 1``;
* the **greedy online baseline** (see :mod:`repro.steiner_online`), the
  classical ``Theta(log n)`` witness.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from ..graphs import EdgeId, Node
from ..graphs.generators import DiamondGraph, diamond_graph
from ..graphs.shortest_path import shortest_path_edges
from ..ncs.actions import NCSType
from ..ncs.bayesian import BayesianNCSGame, uniform_bayesian_ncs
from ..steiner_online.adversary import DiamondRequestSequence, sample_adversary


def sequence_type_profile(
    diamond: DiamondGraph,
    sequence: DiamondRequestSequence,
    num_agents: int,
) -> Tuple[NCSType, ...]:
    """The Lemma 3.5 type profile ``t_sigma`` for one request sequence.

    Agent ``i`` gets ``(sigma_i, root)``; padding agents get the trivial
    ``(root, root)`` type.  Requests beyond ``num_agents`` are rejected.
    """
    if len(sequence.requests) > num_agents:
        raise ValueError(
            f"sequence has {len(sequence.requests)} requests but only "
            f"{num_agents} agents"
        )
    root = diamond.source
    pairs: List[NCSType] = [
        (request, root) for request in sequence.requests
    ]
    pairs.extend((root, root) for _ in range(num_agents - len(pairs)))
    return tuple(pairs)


def diamond_bayesian_game(
    levels: int,
    rng: np.random.Generator,
    scenarios: int = 4,
    num_agents: int = None,
) -> Tuple[BayesianNCSGame, DiamondGraph]:
    """A sub-sampled Lemma 3.5 game: uniform prior over sampled sequences.

    The full adversarial distribution has ``2^(2^levels - 1)`` sequences;
    sampling ``scenarios`` of them uniformly preserves the structure (the
    prior is still supported on coarse-to-fine refinement paths) while
    keeping the exact solvers usable for small ``levels``.
    """
    diamond = diamond_graph(levels)
    if num_agents is None:
        num_agents = 2 ** max(levels, 0)  # = number of requests per sequence
    profiles: List[Tuple[NCSType, ...]] = []
    for _ in range(scenarios):
        sequence = sample_adversary(diamond, rng)
        profiles.append(sequence_type_profile(diamond, sequence, num_agents))
    return uniform_bayesian_ncs(diamond.graph, profiles, name=f"diamond-L{levels}"), diamond


def fixed_shortest_path_map(
    diamond: DiamondGraph,
) -> Dict[Node, FrozenSet[EdgeId]]:
    """Each vertex's fixed shortest path to the root (deterministic ties)."""
    mapping: Dict[Node, FrozenSet[EdgeId]] = {}
    for node in diamond.graph.nodes:
        path = shortest_path_edges(diamond.graph, node, diamond.source)
        assert path is not None
        mapping[node] = frozenset(path)
    return mapping


def fixed_profile_cost(
    diamond: DiamondGraph,
    sequence: DiamondRequestSequence,
    mapping: Dict[Node, FrozenSet[EdgeId]] = None,
) -> float:
    """Social cost of the fixed-path profile on one sampled state.

    Equals the bought-edge cost of the union of the requested vertices'
    fixed paths — the Lemma 3.5 "oblivious" strategy profile evaluated
    without building the (huge) game object.
    """
    if mapping is None:
        mapping = fixed_shortest_path_map(diamond)
    bought: set = set()
    for request in sequence.requests:
        bought |= mapping[request]
    return diamond.graph.total_cost(bought)


def expected_fixed_profile_ratio(
    levels: int,
    rng: np.random.Generator,
    samples: int = 20,
) -> Tuple[float, float, float]:
    """``(E[K(fixed profile)], E[OPT], ratio)`` over the adversary.

    The fixed-path profile is a feasible benevolent profile, so its
    expected cost upper-bounds ``optP`` of the full game; its ratio to
    ``E[OPT] = 1`` grows like ``Omega(levels) = Omega(log n)`` — the
    numerical signature of Lemma 3.5 at scales where exact ``optP`` is
    out of reach.
    """
    diamond = diamond_graph(levels)
    mapping = fixed_shortest_path_map(diamond)
    costs = []
    opts = []
    for _ in range(samples):
        sequence = sample_adversary(diamond, rng)
        costs.append(fixed_profile_cost(diamond, sequence, mapping))
        opts.append(sequence.opt_cost)
    expected_cost = float(np.mean(costs))
    expected_opt = float(np.mean(opts))
    return expected_cost, expected_opt, expected_cost / expected_opt
