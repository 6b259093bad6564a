"""Table 1, directed column: all six cells.

Each benchmark regenerates its cell(s) via the shared experiment
functions (asserting the paper's claim) and times a representative
computational kernel of that cell.
"""

import numpy as np

from repro.analysis.experiments import SWEEPS
from repro.constructions import (
    build_affine_plane_game,
    build_anshelevich_game,
    build_gworst_high_ratio_game,
    random_bayesian_ncs,
)
from repro.runtime.executor import sweep_cells


def test_t1_directed_opt_universal(benchmark, record):
    """optP/optC within [1, k] on random directed games (Obs 2.2 + L3.1)."""
    cells = sweep_cells(SWEEPS["T1-D-opt-U"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        rng = np.random.default_rng(1)
        game = random_bayesian_ncs(2, 5, rng, directed=True)
        return game.ignorance_report().opt_ratio

    benchmark(kernel)


def test_t1_directed_opt_existential(benchmark, record):
    """The affine-plane game's Omega(k) separation (Lemma 3.2)."""
    cells = sweep_cells(SWEEPS["T1-D-opt-E"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        game = build_affine_plane_game(5)
        return game.simulate_profile_cost(
            np.random.default_rng(0), samples=500
        )

    benchmark(kernel)


def test_t1_directed_besteq_universal(benchmark, record):
    """best-eq ratio within [1/H(k), k] on random directed games."""
    cells = sweep_cells(SWEEPS["T1-D-beq-U"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        rng = np.random.default_rng(2)
        game = random_bayesian_ncs(3, 5, rng, directed=True)
        return game.ignorance_report().best_eq_ratio

    benchmark(kernel)


def test_t1_directed_besteq_existential(benchmark, record):
    """Omega(k) (affine) and O(1/log k) (Fig. 1) best-eq separations."""
    cells = sweep_cells(SWEEPS["T1-D-beq-E"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        game = build_anshelevich_game(64)
        return game.bayesian_equilibrium_cost() / game.best_eq_c_exact()

    benchmark(kernel)


def test_t1_directed_worsteq_universal(benchmark, record):
    """worst-eq ratio within [1/k, k] on random directed games (L3.1)."""
    cells = sweep_cells(SWEEPS["T1-D-weq-U"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        rng = np.random.default_rng(3)
        game = random_bayesian_ncs(3, 5, rng, directed=True)
        return game.ignorance_report().worst_eq_ratio

    benchmark(kernel)


def test_t1_directed_worsteq_existential(benchmark, record):
    """G_worst (directed): Omega(k) and O(1/k) worst-eq separations."""
    cells = sweep_cells(SWEEPS["T1-D-weq-E"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        game = build_gworst_high_ratio_game(32, directed=True)
        bayesian = game.bayesian_game()
        # Verifying the expensive equilibrium is the per-cell workhorse.
        assert bayesian.is_bayesian_equilibrium(game.two_hop_bayesian_profile())
        return game.predicted_ratio()

    benchmark(kernel)
