"""Seeded inputs for every workload.

Every function here takes the workload seed and nothing else that varies, so
the same seed gives byte-identical inputs.  Seeds change *values*, not
*sizes*: the service games share one graph topology and type structure
(only edge costs are redrawn), census members come from one cell shape,
and the lazy stream always touches the same number of blocks, so the
work per run is the same on every seed.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

#: The service measure bundle: the full report plus optP, eqP and eqC.
BUNDLE_MEASURES = ("ignorance_report", "opt_p", "eq_p", "eq_c")

#: Dynamics restarts sent per fresh game on service-cold.
DYNAMICS_RESTARTS = 3

#: The census cell (the tabular population shape used by the census
#: bench: 3 agents, binary types and actions, 4 support states).
CENSUS_CELL = dict(source="tabular", agents=3, types=2, actions=2, states=4)

#: Informed-agent types and actions of the over-guard congestion game:
#: ``512 * 18**3 * 3 = 8,957,952`` cells, past the dense cell guard.
LAZY_TYPES = 512
LAZY_ACTIONS = 18


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tags])


# ----------------------------------------------------------------------
# service: ~500k-profile NCS games on one fixed topology
# ----------------------------------------------------------------------

def service_base():
    """The ~500k-profile (497,664) Bayesian NCS game of the service
    bench; its graph and types are the template for every variant."""
    from repro.constructions.random_games import random_bayesian_ncs

    return random_bayesian_ncs(
        3, 7, np.random.default_rng(20_300), directed=True,
        extra_edges=12, scenarios=4, name="perfbench-base",
    )


def service_variant(base: Any, seed: int, index: int):
    """``base`` with every edge cost redrawn from ``(seed, index)``.

    Topology, types and prior are unchanged, so the feasible path sets,
    the tensor shapes and the profile count are those of ``base``; the
    game stays a fair cost-sharing game, so pure equilibria exist and
    best-response dynamics converge.
    """
    from repro.graphs.graph import Graph
    from repro.ncs.bayesian import BayesianNCSGame

    rng = _rng(seed, 1, index)
    graph = Graph(directed=base.graph.directed)
    for node in base.graph.nodes:
        graph.add_node(node)
    for edge in base.graph.edges():
        graph.add_edge(edge.tail, edge.head, float(rng.uniform(0.5, 2.0)))
    core = base.game
    return BayesianNCSGame(
        graph,
        [core.types(agent) for agent in range(core.num_agents)],
        core.prior,
        name=f"perfbench-{seed}-{index}",
    )


def bundle_queries() -> List[Any]:
    from repro.core.session import query

    return [query(measure) for measure in BUNDLE_MEASURES]


def json_body(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload).encode("utf-8")


def submit_body(spec: Any) -> bytes:
    from repro.service.codec import spec_to_wire

    return json_body({"game": spec_to_wire(spec)})


def evaluate_body(queries: Sequence[Any]) -> bytes:
    from repro.service.client import wire_query

    return json_body({"queries": [wire_query(item) for item in queries]})


def dynamics_initials(game: Any, seed: int, index: int) -> List[Tuple]:
    """Seeded random strategy profiles, one feasible action per type."""
    rng = _rng(seed, 2, index)
    profiles = []
    for _ in range(DYNAMICS_RESTARTS):
        profile = []
        for agent in range(game.num_agents):
            per_type = []
            for ti in game.types(agent):
                feasible = game.feasible_actions(agent, ti)
                per_type.append(feasible[int(rng.integers(len(feasible)))])
            profile.append(tuple(per_type))
        profiles.append(tuple(profile))
    return profiles


def dynamics_body(initial: Tuple) -> bytes:
    from repro.service.codec import encode_result

    return json_body({"initial": encode_result(initial), "max_rounds": 10_000})


class ServiceGame:
    """One game ready to send: its spec, wire bodies and dynamics starts."""

    def __init__(self, base: Any, seed: int, index: int) -> None:
        from repro.service.codec import game_hash, tabularize

        game = service_variant(base, seed, index).game
        self.spec = tabularize(game)
        self.hash = game_hash(self.spec)
        self.submit = submit_body(self.spec)
        self.initials = dynamics_initials(game, seed, index)
        self.dynamics = [dynamics_body(initial) for initial in self.initials]


# ----------------------------------------------------------------------
# census: one CENSUS-TAB cell over a seeded member window
# ----------------------------------------------------------------------

def census_sweep(seed: int, members: int):
    """A ``CENSUS-TAB`` sweep over ``members`` members starting at a
    seed-derived index (members are deterministic in their index)."""
    from repro.analysis.census import census_scenario
    from repro.runtime.spec import SweepSpec

    scenario = census_scenario(**CENSUS_CELL, members=members)
    first = (int(seed) % 100_000) * 1_000
    scenario = replace(
        scenario, grid={"member": tuple(range(first, first + members))}
    )
    return SweepSpec("CENSUS-TAB", (scenario,))


# ----------------------------------------------------------------------
# lazy: targeted interim queries on the over-guard congestion game
# ----------------------------------------------------------------------

def congestion_game(num_types: int = LAZY_TYPES, num_actions: int = LAZY_ACTIONS):
    """One informed agent over ``num_types`` single-resource states.

    The construction of ``benchmarks/bench_lazy.py``, kept here so the
    benchmark's input cannot move when that script changes.  Three
    agents pick one of ``num_actions`` resources at congestion cost
    ``base(resource, state) * (1 + load / 4)``; agent 0 observes the
    state, agents 1 and 2 do not.
    """
    from repro.core import BayesianGame, CommonPrior

    actions = list(range(num_actions))
    prior = CommonPrior({(t, 0, 0): 1.0 / num_types for t in range(num_types)})

    def cost(agent, profile, actions_):
        state = profile[0]
        a = actions_[agent]
        load = sum(1 for other in actions_ if other == a)
        return float((a * 31 + state * 7) % 23 + 1) * (1.0 + load / 4.0)

    return BayesianGame(
        [actions] * 3,
        [list(range(num_types)), [0], [0]],
        prior,
        cost,
        name=f"congestion-{num_types}x{num_actions}",
    )


def lazy_stream(
    seed: int,
    queries: int,
    hot_types: int,
    num_types: int = LAZY_TYPES,
    num_actions: int = LAZY_ACTIONS,
    profiles: int = 8,
) -> List[Tuple[int, Tuple]]:
    """A skewed stream of ``(type, profile)`` interim queries for agent 0.

    ``hot_types`` distinct types (seeded) each appear at least once, the
    rest of the stream draws them Zipf-like, so a fresh session misses
    exactly ``hot_types`` blocks and hits resident ones afterwards.
    Profiles cycle through a few seeded choices for agents 1 and 2.
    """
    if not 1 <= hot_types <= min(queries, num_types):
        raise ValueError("need 1 <= hot_types <= min(queries, num_types)")
    rng = _rng(seed, 3)
    hot = [int(t) for t in rng.choice(num_types, size=hot_types, replace=False)]
    weights = 1.0 / np.arange(1, hot_types + 1)
    draws = rng.choice(hot_types, size=queries - hot_types, p=weights / weights.sum())
    order = list(range(hot_types)) + [int(d) for d in draws]
    rng.shuffle(order)
    base = tuple(0 for _ in range(num_types))
    choices = [
        (base, (int(rng.integers(num_actions)),), (int(rng.integers(num_actions)),))
        for _ in range(profiles)
    ]
    return [(hot[slot], choices[position % profiles]) for position, slot in enumerate(order)]
