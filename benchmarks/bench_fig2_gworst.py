"""Fig. 2 (the G_worst triangle): Lemmas 3.6 / 3.7 in both regimes."""

from repro.analysis.experiments import SWEEPS
from repro.constructions import (
    build_gworst_high_ratio_game,
    build_gworst_low_ratio_game,
)
from repro.runtime.executor import sweep_cells


def test_fig2_both_regimes(benchmark, record):
    """Omega(k) and O(1/k) worst-equilibrium separations."""
    cells = sweep_cells(SWEEPS["FIG2"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        high = build_gworst_high_ratio_game(64)
        low = build_gworst_low_ratio_game(64)
        return high.predicted_ratio(), low.predicted_ratio()

    benchmark(kernel)


def test_fig2_exact_reports(benchmark, record):
    """Closed forms coincide with exhaustive enumeration at k = 5."""

    def kernel():
        for build in (build_gworst_low_ratio_game, build_gworst_high_ratio_game):
            game = build(5)
            report = game.bayesian_game().ignorance_report()
            assert abs(report.worst_eq_p - game.worst_eq_p()) < 1e-9
            assert abs(report.worst_eq_c - game.worst_eq_c()) < 1e-9
        return True

    benchmark(kernel)


def test_fig2_equilibrium_checks_scale(benchmark, record):
    """Interim equilibrium verification at k = 256 (polynomial path)."""
    game = build_gworst_high_ratio_game(256)
    bayesian = game.bayesian_game()
    profile = game.two_hop_bayesian_profile()

    def kernel():
        assert bayesian.is_bayesian_equilibrium(profile)
        return game.predicted_ratio()

    benchmark(kernel)
