"""Fig. 1 (the Anshelevich et al. graph): Lemma 3.3 and Remark 1.

Regenerates the figure's content: the gadget where *every* equilibrium of
locally-informed selfish agents beats *every* equilibrium of globally
informed ones, asymptotically — "ignorance is bliss".
"""

from repro.analysis.experiments import SWEEPS
from repro.constructions import build_anshelevich_game
from repro.core import enumerate_strategy_profiles
from repro.runtime.executor import sweep_cells


def test_fig1_bliss_ratio(benchmark, record):
    """worst-eqP / best-eqC = O(1/log k) on the Fig. 1 family."""
    cells = sweep_cells(SWEEPS["FIG1"])
    record(cells)
    assert all(cell.passed for cell in cells)

    def kernel():
        game = build_anshelevich_game(128)
        return game.predicted_bliss_ratio()

    benchmark(kernel)


def test_fig1_equilibrium_uniqueness(benchmark, record):
    """The hub profile is the *unique* Bayesian equilibrium (exhaustive)."""
    game = build_anshelevich_game(8)
    bayesian = game.bayesian_game()

    def kernel():
        equilibria = [
            s
            for s in enumerate_strategy_profiles(bayesian.game)
            if bayesian.is_bayesian_equilibrium(s)
        ]
        assert equilibria == [game.hub_strategy_profile()]
        return len(equilibria)

    benchmark(kernel)


def test_fig1_exact_report(benchmark, record):
    """Full six-measure report on the k = 6 instance."""
    game = build_anshelevich_game(6)
    bayesian = game.bayesian_game()

    def kernel():
        report = bayesian.ignorance_report()
        assert abs(report.worst_eq_p - game.bayesian_equilibrium_cost()) < 1e-9
        assert abs(report.best_eq_c - game.best_eq_c_exact()) < 1e-9
        return report.ratio("worst-eqP", "best-eqC")

    benchmark(kernel)
