"""Section 4: Proposition 4.2 and the Lemma 4.1 public-randomness q."""

import numpy as np

from repro.analysis.experiments import SWEEPS
from repro.minimax import (
    GamePhi,
    public_randomness_certificate,
    r_star,
    solve_zero_sum,
)
from repro.runtime.executor import sweep_cells


def test_sec4_full_pipeline(benchmark, record):
    """R = R~ on random structures; q verified against many priors."""
    cells = sweep_cells(SWEEPS["SEC4"])
    record(cells)
    assert all(cell.passed for cell in cells)

    rng = np.random.default_rng(0)
    K = rng.uniform(0.4, 3.0, size=(6, 5))
    phi = GamePhi.from_matrices(K)

    def kernel():
        certificate = public_randomness_certificate(phi)
        certificate.verify_pointwise()
        return certificate.r

    benchmark(kernel)


def test_sec4_bisection_r_star(benchmark, record):
    """The independent R(phi) computation (bisection over zero-sum LPs)."""
    rng = np.random.default_rng(1)
    K = rng.uniform(0.4, 3.0, size=(6, 5))
    phi = GamePhi.from_matrices(K)

    def kernel():
        return r_star(phi.costs, phi.v, tolerance=1e-7)

    benchmark(kernel)


def test_sec4_zero_sum_backends_agree(benchmark, record):
    """LP vs own-simplex vs learning dynamics on one game."""
    rng = np.random.default_rng(2)
    M = rng.uniform(-2.0, 2.0, size=(12, 10))
    exact = solve_zero_sum(M, method="lp").value
    own = solve_zero_sum(M, method="simplex").value
    assert abs(exact - own) < 1e-7
    approx = solve_zero_sum(M, method="fictitious", iterations=20_000).value
    assert abs(exact - approx) < 0.05

    def kernel():
        return solve_zero_sum(M, method="lp").value

    benchmark(kernel)


def test_sec4_own_simplex_speed(benchmark, record):
    """The from-scratch simplex on the same game (comparative timing)."""
    rng = np.random.default_rng(2)
    M = rng.uniform(-2.0, 2.0, size=(12, 10))

    def kernel():
        return solve_zero_sum(M, method="simplex").value

    benchmark(kernel)
