"""Lemma 3.4 substrate: FRT embeddings (stretch growth and throughput)."""

import numpy as np

from repro.analysis.experiments import SWEEPS
from repro.embeddings import (
    FiniteMetric,
    contract_to_terminals,
    frt_embedding,
    verify_domination,
)
from repro.graphs import grid_graph, random_connected_graph
from repro.runtime.executor import sweep_cells


def test_frt_stretch_growth(benchmark, record):
    """Expected stretch grows like O(log n) over random graphs."""
    cells = sweep_cells(SWEEPS["AUX-3.4"])
    record(cells)
    assert all(cell.passed for cell in cells)

    metric = FiniteMetric.from_graph(grid_graph(4, 4))

    def kernel():
        return frt_embedding(metric, np.random.default_rng(0))

    benchmark(kernel)


def test_frt_domination_always(benchmark, record):
    """Domination is deterministic: holds for every sampled tree."""
    rng = np.random.default_rng(3)
    graph = random_connected_graph(20, 15, rng)
    metric = FiniteMetric.from_graph(graph)

    def kernel():
        tree = frt_embedding(metric, rng)
        verify_domination(metric, tree)
        return tree.tree.node_count

    benchmark(kernel)


def test_steiner_point_removal(benchmark, record):
    """Leader contraction to a tree over the original points."""
    metric = FiniteMetric.from_graph(grid_graph(4, 4))
    tree = frt_embedding(metric, np.random.default_rng(1))

    def kernel():
        contracted = contract_to_terminals(tree)
        assert contracted.tree.node_count == metric.size
        return contracted.tree.edge_count

    benchmark(kernel)
