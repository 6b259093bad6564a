"""Random Bayesian NCS instance families.

These are the spot-check workloads for the paper's *universal* bounds
(Lemmas 3.1, 3.4, 3.8 and Observation 2.2): random graphs, random
source/destination types, random priors.  Sizes are kept small enough for
the exact enumeration machinery.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.prior import CommonPrior
from ..graphs import Graph, random_connected_graph
from ..ncs.bayesian import BayesianNCSGame, uniform_bayesian_ncs
from ..ncs.actions import NCSType


#: Rejection-sampling budget for one feasible (source, destination) draw.
#: Generous: any graph with at least one feasible pair is found with
#: overwhelming probability long before the budget runs out.
PAIR_SAMPLE_ATTEMPTS = 1000


def _random_feasible_pair(
    graph: Graph,
    rng: np.random.Generator,
    allow_trivial: bool = True,
    attempts: int = PAIR_SAMPLE_ATTEMPTS,
) -> NCSType:
    """A random (source, destination) pair connected in ``graph``.

    Raises a deterministic, parameter-naming ``RuntimeError`` when the
    attempt budget runs out (e.g. a one-node graph with
    ``allow_trivial=False`` has no feasible pair at all).
    """
    nodes = graph.nodes
    for _ in range(attempts):
        x = nodes[int(rng.integers(len(nodes)))]
        y = nodes[int(rng.integers(len(nodes)))]
        if x == y and not allow_trivial:
            continue
        if graph.connects(x, y):
            return (x, y)
    raise RuntimeError(
        f"could not sample a feasible (source, destination) pair in "
        f"{attempts} attempts (nodes={len(nodes)}, "
        f"directed={graph.directed}, allow_trivial={allow_trivial}); "
        f"the graph may have no feasible pair under these constraints"
    )


def _feasible_pair_count(graph: Graph, allow_trivial: bool = True) -> int:
    """How many distinct feasible (source, destination) pairs exist."""
    nodes = graph.nodes
    return sum(
        1
        for x in nodes
        for y in nodes
        if (allow_trivial or x != y) and graph.connects(x, y)
    )


def random_bayesian_ncs(
    num_agents: int,
    num_nodes: int,
    rng: np.random.Generator,
    directed: bool = False,
    scenarios: int = 2,
    extra_edges: Optional[int] = None,
    allow_trivial: bool = True,
    name: str = "",
) -> BayesianNCSGame:
    """A random Bayesian NCS game with a uniform prior over scenarios.

    Each scenario assigns every agent a random feasible pair; the prior is
    uniform over the (independent) scenarios, giving a correlated prior in
    general.  For directed graphs the generator retries pairs until each is
    reachable, so all declared types are feasible.
    """
    if extra_edges is None:
        extra_edges = num_nodes
    graph = random_connected_graph(
        num_nodes, extra_edges, rng, directed=directed
    )
    profiles: List[Tuple[NCSType, ...]] = []
    for _ in range(scenarios):
        profiles.append(
            tuple(
                _random_feasible_pair(graph, rng, allow_trivial)
                for _ in range(num_agents)
            )
        )
    return uniform_bayesian_ncs(
        graph, profiles, name=name or f"random-ncs-k{num_agents}"
    )


def random_independent_bayesian_ncs(
    num_agents: int,
    num_nodes: int,
    rng: np.random.Generator,
    types_per_agent: int = 2,
    directed: bool = False,
    name: str = "",
) -> BayesianNCSGame:
    """A random Bayesian NCS game with *independent* per-agent type draws.

    Each agent gets ``types_per_agent`` candidate pairs with random
    marginal probabilities; the prior is the product distribution.
    """
    graph = random_connected_graph(num_nodes, num_nodes, rng, directed=directed)
    available = _feasible_pair_count(graph)
    if available < types_per_agent:
        raise ValueError(
            f"cannot draw {types_per_agent} distinct types per agent: the "
            f"random graph (num_nodes={num_nodes}, directed={directed}) has "
            f"only {available} distinct feasible (source, destination) "
            f"pairs; lower types_per_agent or raise num_nodes "
            f"(num_agents={num_agents})"
        )
    type_spaces: List[List[NCSType]] = []
    marginals = []
    # Distinctness is a coupon-collector problem over the feasible pairs;
    # with available >= types_per_agent (checked above) this budget is hit
    # only with vanishing probability, and running dry is an error, not a
    # hang.
    attempts_budget = PAIR_SAMPLE_ATTEMPTS + 200 * types_per_agent
    for agent in range(num_agents):
        pairs: List[NCSType] = []
        attempts = 0
        while len(pairs) < types_per_agent:
            if attempts >= attempts_budget:
                raise RuntimeError(
                    f"could not sample {types_per_agent} distinct feasible "
                    f"pairs for agent {agent} in {attempts_budget} attempts "
                    f"(num_agents={num_agents}, num_nodes={num_nodes}, "
                    f"directed={directed}, {available} feasible pairs exist)"
                )
            attempts += 1
            pair = _random_feasible_pair(graph, rng)
            if pair not in pairs:
                pairs.append(pair)
        weights = rng.dirichlet(np.ones(len(pairs)))
        type_spaces.append(pairs)
        marginals.append({pair: float(w) for pair, w in zip(pairs, weights) if w > 0})
    prior = CommonPrior.from_independent(marginals)
    # Drop zero-probability pairs from the type spaces? They are harmless:
    # enumeration ignores them (strategy space fixes a placeholder there).
    return BayesianNCSGame(
        graph, type_spaces, prior, name=name or f"random-ind-ncs-k{num_agents}"
    )
