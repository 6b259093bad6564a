"""Exact-value pins for the Steiner solvers.

The solvers' results feed ``optC`` and so every artifact of the
reproduction; a refactor may not move a single bit.  ``GOLDEN`` holds the
``repr`` of each answer on seeded random graphs, captured from the
solvers before they shared one Dreyfus-Wagner DP and one distance matrix.
"""

import numpy as np
import pytest

from repro.graphs import random_connected_graph
from repro.graphs.steiner import (
    directed_steiner_tree_exact,
    minimum_connection_cost,
    steiner_forest_exact,
    steiner_tree_exact,
)

SEEDS = range(12)


def _instance(seed, directed, stream):
    """A seeded random graph on 6-9 nodes and the rng that drew it."""
    rng = np.random.default_rng([seed, int(directed), stream])
    n = 6 + seed % 4
    return random_connected_graph(n, n, rng, directed=directed), rng


def _nodes(rng, graph, count, within=None):
    """``count`` random nodes, drawn from ``within`` when given."""
    pool = sorted(graph.nodes if within is None else within)
    return [pool[int(rng.integers(len(pool)))] for _ in range(count)]


def _hub(graph):
    """The node reaching the most others (lowest such node on ties)."""
    return max(sorted(graph.nodes), key=lambda node: len(graph.reachable(node)))


def _pairs(rng, graph, count):
    """Random pairs; in a directed graph each target is mostly reachable
    from its source, and every fourth pair is drawn blind."""
    pairs = []
    for i in range(count):
        (source,) = _nodes(rng, graph, 1)
        reach = graph.reachable(source) if graph.directed and i % 4 else None
        pairs.append((source, *_nodes(rng, graph, 1, within=reach)))
    return pairs


def tree_answers():
    answers = []
    for seed in SEEDS:
        graph, rng = _instance(seed, False, stream=0)
        answers.append(steiner_tree_exact(graph, _nodes(rng, graph, 2 + seed % 5)))
    return [repr(value) for value in answers]


def directed_tree_answers():
    answers = []
    for seed in SEEDS:
        graph, rng = _instance(seed, True, stream=1)
        # Every fourth root is drawn blind; odd seeds add a blind terminal,
        # which the root may not reach.
        root = _hub(graph) if seed % 4 else _nodes(rng, graph, 1)[0]
        terminals = _nodes(rng, graph, 1 + seed % 5, within=graph.reachable(root))
        terminals += _nodes(rng, graph, seed % 2)
        answers.append(directed_steiner_tree_exact(graph, root, terminals))
    return [repr(value) for value in answers]


def forest_answers():
    answers = []
    for seed in SEEDS:
        graph, rng = _instance(seed, False, stream=2)
        answers.append(steiner_forest_exact(graph, _pairs(rng, graph, 2 + seed % 3)))
    return [repr(value) for value in answers]


def connection_answers():
    answers = []
    for directed in (False, True):
        for seed in SEEDS:
            graph, rng = _instance(seed, directed, stream=3)
            if directed and seed % 2:  # one common source: the DP path
                root = _hub(graph)
                reach = graph.reachable(root)
                pairs = [(root, y) for y in _nodes(rng, graph, 2 + seed % 3, reach)]
            else:
                pairs = _pairs(rng, graph, 2 + seed % 3)
            answers.append(minimum_connection_cost(graph, pairs))
    return [repr(value) for value in answers]


GOLDEN = {
    "steiner_tree_exact": [
        '1.5944831696449162',
        '2.7009836157140423',
        '3.3805743951682605',
        '2.1332662433959344',
        '2.674075019453134',
        '0.5912040694370841',
        '2.952813241220546',
        '4.323947395169279',
        '4.365249918017518',
        '3.7211492644937105',
        '2.998056630276855',
        '3.0965106154409066',
    ],
    "directed_steiner_tree_exact": [
        '0.0',
        '1.601753903464447',
        '3.33460987569028',
        '3.8456715743988372',
        '1.0454248363140877',
        '3.8972085765837177',
        '2.10707379831792',
        '4.3669389163412635',
        '2.644476687047007',
        '3.168552778661052',
        '1.000946283982251',
        '1.749437402033641',
    ],
    "steiner_forest_exact": [
        '4.563272278549903',
        '2.804640320290854',
        '3.8615777692501663',
        '5.236818804546539',
        '4.140552695868433',
        '4.95543522541306',
        '2.4863595402016934',
        '5.4561785970611645',
        '4.238909148618457',
        '1.914955222552262',
        '4.8674292790908344',
        '4.635939661646926',
    ],
    "minimum_connection_cost": [
        '4.152785195320493',
        '3.988751297611592',
        '4.7255107176422175',
        '3.2286996771939105',
        '2.4513807249730855',
        '2.924095548040438',
        '3.215506821192176',
        '6.6095629233708895',
        '4.907427313073742',
        '5.2233210011533515',
        '2.8560281067446485',
        '5.888049794692108',
        '0.8699277734722799',
        '4.218693725729199',
        '5.465150358758103',
        '3.046957523481272',
        'inf',
        '4.120398767307219',
        'inf',
        '4.349685013570283',
        'inf',
        '2.0066986420032586',
        'inf',
        '3.9146130396805194',
    ],
}

COMPUTE = {
    "steiner_tree_exact": tree_answers,
    "directed_steiner_tree_exact": directed_tree_answers,
    "steiner_forest_exact": forest_answers,
    "minimum_connection_cost": connection_answers,
}


@pytest.mark.parametrize("solver", sorted(GOLDEN))
def test_solver_answers_are_pinned(solver):
    assert COMPUTE[solver]() == GOLDEN[solver]
