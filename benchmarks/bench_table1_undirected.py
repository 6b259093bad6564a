"""Table 1, undirected column: all six cells."""

import numpy as np

from repro.analysis.experiments import SWEEPS
from repro.constructions import (
    build_bliss_triangle,
    build_gworst_low_ratio_game,
    expected_fixed_profile_ratio,
    random_bayesian_ncs,
)
from repro.embeddings import tree_strategy_social_cost
from repro.runtime.executor import sweep_cells


def test_t1_undirected_opt_universal(benchmark, record):
    """optP/optC <= O(log n): exact optima + FRT witness (Lemma 3.4)."""
    cells = sweep_cells(SWEEPS["T1-U-opt-U"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        rng = np.random.default_rng(4)
        game = random_bayesian_ncs(2, 6, rng, extra_edges=2)
        best, _ = tree_strategy_social_cost(game, rng, samples=3)
        return best

    benchmark(kernel)


def test_t1_undirected_opt_existential(benchmark, record):
    """Diamond games: Omega(log n) at k = Theta(n) (Lemma 3.5)."""
    cells = sweep_cells(SWEEPS["T1-U-opt-E"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        rng = np.random.default_rng(5)
        return expected_fixed_profile_ratio(3, rng, samples=6)[2]

    benchmark(kernel)


def test_t1_undirected_besteq_universal(benchmark, record):
    """best-eq ratio within [1/H(k), min(k, log k log n)]."""
    cells = sweep_cells(SWEEPS["T1-U-beq-U"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        rng = np.random.default_rng(6)
        game = random_bayesian_ncs(3, 5, rng, extra_edges=2)
        return game.ignorance_report().best_eq_ratio

    benchmark(kernel)


def test_t1_undirected_besteq_existential(benchmark, record):
    """Omega(log n) (diamonds) and < 1 (bliss triangle) best-eq cells."""
    cells = sweep_cells(SWEEPS["T1-U-beq-E"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        gadget = build_bliss_triangle()
        return gadget.bayesian_game().ignorance_report().best_eq_ratio

    benchmark(kernel)


def test_t1_undirected_worsteq_universal(benchmark, record):
    """worst-eq ratio within [1/k, k] on random undirected games."""
    cells = sweep_cells(SWEEPS["T1-U-weq-U"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        rng = np.random.default_rng(7)
        game = random_bayesian_ncs(3, 5, rng, extra_edges=2)
        return game.ignorance_report().worst_eq_ratio

    benchmark(kernel)


def test_t1_undirected_worsteq_existential(benchmark, record):
    """G_worst (undirected): Omega(k) and O(1/k) separations."""
    cells = sweep_cells(SWEEPS["T1-U-weq-E"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        game = build_gworst_low_ratio_game(32)
        bayesian = game.bayesian_game()
        assert bayesian.is_bayesian_equilibrium(game.direct_bayesian_profile())
        return game.predicted_ratio()

    benchmark(kernel)
