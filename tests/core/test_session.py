"""GameSession / Query facade: planning, memoization, and parity.

The load-bearing claims: a session lowers its game at most once and runs
*one* equilibrium enumeration for a whole query bundle (call-count spies
on both engines' enumeration primitives), answers are exactly the free
functions' answers, errors memoize without poisoning sweep-free
measures, and the engine is pinned per session.  The randomized
exact-agreement sweep lives in ``tests/engine_fuzz``.
"""

import traceback

import numpy as np
import pytest

import repro.core.session as session_module
from repro._util import ExplosionError
from repro.core import (
    BatchSession,
    GameSession,
    engine_override,
    enumerate_bayesian_equilibria,
    bayesian_equilibrium_extreme_costs,
    eq_c,
    evaluate,
    ignorance_report,
    opt_c,
    opt_p,
    query,
)
from repro.core import tensor
from repro.constructions.random_games import random_bayesian_ncs

from canonical_games import (
    informed_coordination_game,
    matching_pennies,
    matching_state_game,
)

#: A representative bundle: the full report, one ratio component, optP,
#: the extremes, and the equilibrium set — five sweeps as free calls.
BUNDLE = (
    query("ignorance_report"),
    query("eq_c", kind="worst"),
    query("opt_p"),
    query("eq_p"),
    query("equilibria"),
)


@pytest.fixture
def sweep_spy(monkeypatch):
    """Count TensorGame.sweep_profiles calls (the tensor enumeration)."""
    calls = []
    original = tensor.TensorGame.sweep_profiles

    def counting(self, max_profiles, collect_equilibria=False, check_equilibria=True):
        calls.append((collect_equilibria, check_equilibria))
        return original(
            self,
            max_profiles,
            collect_equilibria=collect_equilibria,
            check_equilibria=check_equilibria,
        )

    monkeypatch.setattr(tensor.TensorGame, "sweep_profiles", counting)
    return calls


@pytest.fixture
def scan_spy(monkeypatch):
    """Count reference-path strategy-profile enumerations in the session."""
    calls = []
    original = session_module.enumerate_strategy_profiles

    def counting(game, max_profiles):
        calls.append(game)
        return original(game, max_profiles)

    monkeypatch.setattr(session_module, "enumerate_strategy_profiles", counting)
    return calls


class TestPlannerSharesEnumeration:
    def test_tensor_bundle_sweeps_once(self, sweep_spy):
        session = GameSession(informed_coordination_game())
        values = session.evaluate(list(BUNDLE))
        assert len(sweep_spy) == 1, sweep_spy
        # The union capability: equilibria collected, conditions checked.
        assert sweep_spy == [(True, True)]
        assert len(values) == len(BUNDLE)

    def test_followup_queries_reuse_the_sweep(self, sweep_spy):
        session = GameSession(informed_coordination_game())
        session.evaluate(list(BUNDLE))
        session.evaluate([query("opt_p"), query("eq_p", kind="best")])
        assert session.opt_p() == session.ignorance_report().opt_p
        assert len(sweep_spy) == 1

    def test_free_functions_sweep_per_call(self, sweep_spy):
        game = informed_coordination_game()
        ignorance_report(game)
        opt_p(game)
        bayesian_equilibrium_extreme_costs(game)
        enumerate_bayesian_equilibria(game)
        assert len(sweep_spy) == 4

    def test_reference_bundle_scans_once(self, scan_spy):
        with engine_override("reference"):
            session = GameSession(matching_state_game())
            session.evaluate(list(BUNDLE))
            session.evaluate([query("opt_p")])
        assert len(scan_spy) == 1

    def test_opt_p_alone_skips_the_equilibrium_check(self, sweep_spy):
        session = GameSession(informed_coordination_game())
        session.evaluate([query("opt_p"), query("optimal_profile")])
        assert sweep_spy == [(False, False)]

    def test_state_analyses_memoize(self, monkeypatch):
        calls = []
        original = tensor.nash_masks

        def counting(costs, shape):
            calls.append(shape)
            return original(costs, shape)

        monkeypatch.setattr(tensor, "nash_masks", counting)
        game = informed_coordination_game()
        session = GameSession(game)
        session.evaluate([query("ignorance_report"), query("eq_c")])
        session.eq_c()
        assert len(calls) == len(game.prior.support())

    def test_opt_c_query_and_report_share_one_fold(self, monkeypatch):
        """On a lowered game the ``opt_c`` query and the report read one
        memoized fold of the lowering, never the per-state optima."""
        calls = []
        original = GameSession.state_optimum

        def counting(self, profile):
            calls.append(profile)
            return original(self, profile)

        monkeypatch.setattr(GameSession, "state_optimum", counting)
        session = GameSession(informed_coordination_game())
        value, report = session.evaluate([query("opt_c"), query("ignorance_report")])
        assert report.opt_c == value
        assert calls == []
        keys = [key for key in session._memo if str(key[0]).startswith("opt_c")]
        assert keys == [("opt_c",)]


class TestAnswersMatchFreeFunctions:
    def test_bundle_values(self):
        for builder in (matching_state_game, informed_coordination_game):
            values = evaluate(builder(), list(BUNDLE))
            free_game = builder()
            report = ignorance_report(free_game)
            assert values[0] == report
            assert values[1] == eq_c(free_game)[1]
            assert values[2] == opt_p(free_game)
            assert values[3] == bayesian_equilibrium_extreme_costs(free_game)
            assert values[4] == enumerate_bayesian_equilibria(free_game)

    def test_bare_strings_and_ratio_queries(self):
        game = matching_state_game()
        values = evaluate(
            game, ["opt_c", query("ratio", numerator="optP", denominator="optC")]
        )
        free_game = matching_state_game()
        assert values[0] == opt_c(free_game)
        assert values[1] == ignorance_report(free_game).opt_ratio

    def test_dynamics_query(self):
        from repro.core.equilibrium import bayesian_best_response_dynamics

        game = informed_coordination_game()
        (fixed_point,) = evaluate(game, [query("dynamics")])
        assert fixed_point == bayesian_best_response_dynamics(
            informed_coordination_game()
        )

    def test_state_optimum_query(self):
        from repro.core.measures import state_optimum

        game = matching_state_game()
        profile = game.prior.support()[0][0]
        (value,) = evaluate(game, [query("state_optimum", profile=profile)])
        assert value == state_optimum(matching_state_game(), profile)


class TestErrorMemoization:
    def test_no_equilibrium_raises_without_poisoning_opt_p(self):
        session = GameSession(matching_pennies().to_bayesian())
        assert session.bayesian_equilibria() == []
        for _ in range(2):
            with pytest.raises(RuntimeError, match="no pure Bayesian equilibrium"):
                session.equilibrium_extreme_costs()
        # Sweep-free and equilibrium-free measures still answer.
        assert session.opt_p() == opt_p(matching_pennies().to_bayesian())

    def test_report_error_is_memoized(self):
        session = GameSession(matching_pennies().to_bayesian())
        with pytest.raises(RuntimeError):
            session.evaluate([query("ignorance_report")])
        with pytest.raises(RuntimeError):
            session.ignorance_report()

    def test_unknown_measure_rejected_before_any_work(self, sweep_spy):
        session = GameSession(informed_coordination_game())
        with pytest.raises(ValueError, match="unknown measure"):
            session.evaluate([query("opt_p"), query("banana")])
        assert sweep_spy == []

    def test_bad_kind_rejected(self):
        session = GameSession(matching_state_game())
        with pytest.raises(ValueError, match="kind"):
            session.evaluate([query("eq_c", kind="median")])

    def test_memoized_error_traceback_stays_bounded(self):
        """Re-raising a cached error must not grow its traceback."""
        session = GameSession(matching_pennies().to_bayesian())

        def raised_depth():
            try:
                session.ignorance_report()
            except RuntimeError as error:
                depth = 0
                traceback = error.__traceback__
                while traceback is not None:
                    depth += 1
                    traceback = traceback.tb_next
                return depth
            pytest.fail("expected the memoized report error")

        raised_depth()  # memoize
        second = raised_depth()
        for _ in range(5):
            assert raised_depth() == second

    @pytest.mark.parametrize("measure", ["opt_p", "ignorance_report"])
    def test_memo_hit_raises_a_fresh_copy(self, measure):
        """Every raise of a memoized error is a new object of the same
        type, message and attributes, whose traceback holds only the
        frames it passed on its way out."""
        if measure == "opt_p":  # an explosion guard trips in the sweep
            session = GameSession(matching_state_game(), max_strategy_profiles=1)
            expected = ExplosionError
        else:
            session = GameSession(matching_pennies().to_bayesian())
            expected = RuntimeError
        raised = []
        for _ in range(4):
            with pytest.raises(expected) as excinfo:
                session.evaluate([query(measure)])
            raised.append(excinfo.value)
        first = raised[0]
        assert len({id(error) for error in raised}) == len(raised)
        assert {type(error) for error in raised} == {expected}
        assert {str(error) for error in raised} == {str(first)}
        assert {error.args for error in raised} == {first.args}
        if expected is ExplosionError:
            assert {
                (error.what, error.size, error.limit) for error in raised
            } == {("strategy profiles", first.size, 1)}
        depths = [len(traceback.extract_tb(error.__traceback__)) for error in raised]
        assert depths[1:] == [depths[1]] * 3
        assert all(error.__context__ is None for error in raised[1:])

    def test_memo_hit_keeps_slot_attributes(self):
        """An error that keeps its state in slots (numpy's ``AxisError``)
        raises again with that state, so its message, intact."""

        def solver(profile):
            raise np.exceptions.AxisError(2, 1)

        session = GameSession(matching_state_game(), state_solver=solver)
        for _ in range(2):
            with pytest.raises(np.exceptions.AxisError) as excinfo:
                session.opt_c()
            assert (excinfo.value.axis, excinfo.value.ndim) == (2, 1)
            assert str(excinfo.value) == "axis 2 is out of bounds for array of dimension 1"

    def test_reference_extremes_do_not_materialize_equilibria(self):
        """An extremes-only reference pass keeps O(1) memory (running
        folds), exactly like the free reference path it replaces."""
        with engine_override("reference"):
            session = GameSession(matching_state_game())
            session.equilibrium_extreme_costs()
            assert session.lowered() is None
            (kind, sweep) = session._memo[("sweep", True, False)]
            assert kind == "ok" and sweep.eq_indices is None
            # Asking for the set afterwards upgrades to a collecting pass.
            assert session.bayesian_equilibria()
            assert session._memo[("sweep", True, True)][1].eq_indices


class TestEngineScoping:
    def test_session_pins_engine_at_construction(self):
        with engine_override("reference"):
            pinned = GameSession(matching_state_game())
        assert pinned.engine == "reference"
        # Outside the override the session still refuses to lower...
        assert pinned.lowered() is None
        # ...while a default session under the ambient engine lowers.
        assert GameSession(matching_state_game()).lowered() is not None

    def test_explicit_engine_wins(self):
        session = GameSession(matching_state_game(), engine="reference")
        assert session.lowered() is None
        with pytest.raises(ValueError):
            GameSession(matching_state_game(), engine="gpu")

    def test_reference_session_matches_tensor_session(self):
        reference = GameSession(matching_state_game(), engine="reference")
        tensorized = GameSession(matching_state_game(), engine="auto")
        assert reference.evaluate(list(BUNDLE)) == tensorized.evaluate(list(BUNDLE))


class TestBatchAndPlugins:
    def _games(self):
        return [
            matching_state_game(),
            informed_coordination_game(),
        ]

    def test_evaluate_many_rows_align_with_games(self):
        batch = BatchSession(self._games())
        rows = batch.evaluate_many([query("opt_p"), query("eq_c", kind="best")])
        assert len(batch) == len(rows) == 2
        for game, row in zip(self._games(), rows):
            assert row == [opt_p(game), eq_c(game)[0]]

    def test_batch_of_prebuilt_sessions(self):
        sessions = [GameSession(game) for game in self._games()]
        rows = BatchSession.from_sessions(sessions).evaluate_many([query("opt_p")])
        assert rows == [[session.opt_p()] for session in sessions]

    def test_ncs_session_plugs_in_the_steiner_solver(self):
        rng = np.random.default_rng(7)
        game = random_bayesian_ncs(2, 5, rng, extra_edges=2)
        seen = []

        def solver(profile):
            seen.append(profile)
            return game.state_optimum(profile)

        session = game.session(state_solver=solver)
        report, opt_c_value = session.evaluate(
            [query("ignorance_report"), query("opt_c")]
        )
        assert seen, "state_solver plugin was never consulted"
        assert opt_c_value == game.opt_c()
        assert report == game.ignorance_report()

    def test_ncs_default_session_uses_exact_solver(self):
        rng = np.random.default_rng(11)
        game = random_bayesian_ncs(2, 5, rng, extra_edges=2)
        (value,) = game.session().evaluate([query("opt_c")])
        assert value == game.opt_c()
