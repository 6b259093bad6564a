"""Lemma 3.5 substrate: greedy online Steiner vs the diamond adversary."""

import numpy as np

from repro.analysis.experiments import SWEEPS
from repro.graphs import diamond_graph
from repro.runtime.executor import sweep_cells
from repro.steiner_online import (
    GreedyOnlineSteiner,
    greedy_cost_on_adversary,
    sample_adversary,
)


def test_online_steiner_lower_bound(benchmark, record):
    """E[greedy]/E[OPT] grows like Omega(log n) on diamonds."""
    cells = sweep_cells(SWEEPS["AUX-3.5"])
    record(cells)
    assert all(cell.passed for cell in cells)

    diamond = diamond_graph(4)
    rng = np.random.default_rng(0)

    def kernel():
        sequence = sample_adversary(diamond, rng)
        return greedy_cost_on_adversary(diamond, sequence)

    benchmark(kernel)


def test_greedy_serve_throughput(benchmark, record):
    """Serving a full adversarial sequence on a level-5 diamond."""
    diamond = diamond_graph(5)
    sequence = sample_adversary(diamond, np.random.default_rng(1))

    def kernel():
        algorithm = GreedyOnlineSteiner(diamond.graph, diamond.source)
        return algorithm.serve_sequence(sequence.requests)

    benchmark(kernel)
