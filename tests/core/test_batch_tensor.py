"""The structure-of-arrays kernels against the per-game tensor engine.

Every :class:`BatchTensorGame` kernel must reproduce the per-game
:class:`TensorGame` kernel lane for lane — values bit-identical, errors
(type *and* message) landing only in the failing game's slot while the
rest of the bucket answers normally.  The profile sweep is one kernel
for both (a single game is its one-lane case), so the sweep cases also
check every lane against the reference engine (``opt_p``, the
equilibrium extreme costs and the equilibrium list, errors included).  The populations come from
``repro.analysis.census.FAMILIES``: one same-shape family per bucket, with
the tiny family deliberately containing members that have no pure Nash
equilibrium in some state (the per-game ``eq_c`` raise).
"""

import numpy as np
import pytest

from repro._util import ExplosionError
from repro.analysis.census import population_game
from repro.core import (
    bayesian_equilibrium_extreme_costs,
    engine_override,
    enumerate_bayesian_equilibria,
    opt_p,
    tensor,
)
from repro.core.strategy import greedy_strategy_profile

BIG = 10**9


def _family(name, count):
    games = [population_game(name, member) for member in range(count)]
    lowered = [tensor.maybe_lower(game) for game in games]
    assert all(tg is not None for tg in lowered)
    return games, lowered


def _per_game(fn):
    """Run a per-game kernel, folding the raise into (value, error)."""
    try:
        return fn(), None
    except (ExplosionError, RuntimeError) as error:
        return None, error


def _same_error(batch_error, game_error):
    if batch_error is None and game_error is None:
        return True
    return (
        type(batch_error) is type(game_error)
        and str(batch_error) == str(game_error)
    )


def _check_reference(name, member, tg, max_profiles, sweep, error, checked=True):
    """One lane's sweep (or error) against the reference engine's
    ``opt_p``, extreme costs and equilibria on a fresh build
    (``checked=False``: a check-free sweep, so ``opt_p`` only)."""
    game = population_game(name, member)
    with engine_override("reference"):
        opt, opt_error = _per_game(lambda: opt_p(game, max_profiles))
        extremes, extremes_error = _per_game(
            lambda: bayesian_equilibrium_extreme_costs(game, max_profiles)
        )
        equilibria, eq_error = _per_game(
            lambda: enumerate_bayesian_equilibria(game, max_profiles)
        )
    if error is not None:
        assert sweep is None
        assert _same_error(error, eq_error)
        assert _same_error(error, extremes_error)
        if isinstance(error, ExplosionError):
            assert _same_error(error, opt_error)
        return
    assert opt_error is None and sweep.opt_p == opt
    if not checked:
        return
    assert eq_error is None
    assert sweep.eq_found == bool(equilibria)
    if sweep.eq_found:
        assert (sweep.best_eq, sweep.worst_eq) == extremes
    else:
        assert isinstance(extremes_error, RuntimeError)
        assert "no pure Bayesian equilibrium" in str(extremes_error)
    if sweep.eq_indices is not None:
        assert [tg.decode_profile(i) for i in sweep.eq_indices] == equilibria


class TestBatchSignature:
    def test_same_family_members_share_a_signature(self):
        _games, lowered = _family("tiny-2x2x2s2", 4)
        signatures = {tensor.batch_signature(tg) for tg in lowered}
        assert len(signatures) == 1

    def test_families_differ(self):
        _g1, tiny = _family("tiny-2x2x2s2", 1)
        _g2, bench = _family("bench-3x2x2s4", 1)
        assert tensor.batch_signature(tiny[0]) != tensor.batch_signature(
            bench[0]
        )

    def test_mixed_signatures_are_refused(self):
        _g1, tiny = _family("tiny-2x2x2s2", 1)
        _g2, bench = _family("bench-3x2x2s4", 1)
        with pytest.raises(ValueError, match="share a lowering shape"):
            tensor.BatchTensorGame(tiny + bench)

    def test_empty_batch_is_refused(self):
        with pytest.raises(ValueError, match="at least one"):
            tensor.BatchTensorGame([])


class TestSweepParity:
    @pytest.mark.parametrize("collect", [False, True])
    def test_sweep_matches_per_game(self, collect):
        _games, lowered = _family("tiny-2x2x2s2", 10)
        batch = tensor.BatchTensorGame(lowered)
        sweeps, errors = batch.sweep_profiles(
            BIG, collect_equilibria=collect
        )
        for member, (tg, sweep, error) in enumerate(zip(lowered, sweeps, errors)):
            _check_reference("tiny-2x2x2s2", member, tg, BIG, sweep, error)
            expected, expected_error = _per_game(
                lambda: tg.sweep_profiles(BIG, collect_equilibria=collect)
            )
            assert _same_error(error, expected_error)
            if expected is None:
                assert sweep is None
                continue
            assert sweep.opt_p == expected.opt_p
            assert sweep.argmin_index == expected.argmin_index
            assert sweep.best_eq == expected.best_eq
            assert sweep.worst_eq == expected.worst_eq
            assert sweep.eq_found == expected.eq_found
            assert sweep.eq_indices == expected.eq_indices

    def test_check_free_sweep_matches(self):
        _games, lowered = _family("bench-3x2x2s4", 6)
        batch = tensor.BatchTensorGame(lowered)
        sweeps, errors = batch.sweep_profiles(BIG, check_equilibria=False)
        assert errors == [None] * len(lowered)
        for member, (tg, sweep) in enumerate(zip(lowered, sweeps)):
            _check_reference(
                "bench-3x2x2s4", member, tg, BIG, sweep, None, checked=False
            )
            expected = tg.sweep_profiles(BIG, check_equilibria=False)
            assert sweep.opt_p == expected.opt_p
            assert sweep.argmin_index == expected.argmin_index

    def test_explosion_is_all_or_none_with_the_per_game_message(self):
        _games, lowered = _family("tiny-2x2x2s2", 3)
        batch = tensor.BatchTensorGame(lowered)
        sweeps, errors = batch.sweep_profiles(1)
        assert sweeps == [None] * 3
        for member, (tg, error) in enumerate(zip(lowered, errors)):
            _check_reference("tiny-2x2x2s2", member, tg, 1, None, error)
            _, expected_error = _per_game(lambda: tg.sweep_profiles(1))
            assert isinstance(error, ExplosionError)
            assert _same_error(error, expected_error)

    def test_subset_matches_full_run(self):
        _games, lowered = _family("tiny-2x2x2s2", 8)
        batch = tensor.BatchTensorGame(lowered)
        full, _ = batch.sweep_profiles(BIG, collect_equilibria=True)
        subset = [5, 1, 6]
        partial, partial_errors = batch.sweep_profiles(
            BIG, collect_equilibria=True, subset=subset
        )
        for position, g in enumerate(subset):
            _check_reference(
                "tiny-2x2x2s2", g, lowered[g], BIG, partial[position],
                partial_errors[position],
            )
            assert partial[position].opt_p == full[g].opt_p
            assert partial[position].eq_indices == full[g].eq_indices


class TestScanParity:
    def test_opt_c_and_state_optima_match_per_game(self):
        _games, lowered = _family("tiny-2x2x2s2", 10)
        batch = tensor.BatchTensorGame(lowered)
        totals = batch.opt_c()
        optima = batch.state_optima()
        for g, tg in enumerate(lowered):
            assert float(totals[g]) == tg.opt_c()
            for s in range(len(tg.states)):
                assert float(optima[g, s]) == tg.state_block(s).optimum()

    def test_eq_c_matches_per_game_including_no_nash_errors(self):
        games, lowered = _family("tiny-2x2x2s2", 12)
        batch = tensor.BatchTensorGame(lowered)
        pairs, errors = batch.eq_c()
        per_game = [_per_game(tg.eq_c) for tg in lowered]
        assert any(error is not None for _, error in per_game), (
            "corpus must include a no-pure-Nash member for this test"
        )
        for (pair, error), (expected, expected_error) in zip(
            zip(pairs, errors), per_game
        ):
            assert _same_error(error, expected_error)
            assert pair == expected

    def test_one_failing_game_leaves_the_rest_intact(self):
        games, lowered = _family("tiny-2x2x2s2", 12)
        batch = tensor.BatchTensorGame(lowered)
        _pairs, errors = batch.eq_c()
        healthy = [g for g, error in enumerate(errors) if error is None]
        failing = [g for g, error in enumerate(errors) if error is not None]
        assert healthy and failing
        pairs, sub_errors = batch.eq_c(subset=healthy)
        assert sub_errors == [None] * len(healthy)
        for position, g in enumerate(healthy):
            assert pairs[position] == lowered[g].eq_c()


class TestDynamicsParity:
    def test_dynamics_match_per_game_including_non_convergence(self):
        games, lowered = _family("tiny-2x2x2s2", 12)
        batch = tensor.BatchTensorGame(lowered)
        starts = [greedy_strategy_profile(game) for game in games]
        rows = [tg.encode_strategies(start) for tg, start in zip(lowered, starts)]
        assert all(row is not None for row in rows)
        digits, errors = batch.best_response_digits(rows, max_rounds=8)
        outcomes = [
            _per_game(lambda tg=tg, s=start: tg.best_response_dynamics(s, 8))
            for tg, start in zip(lowered, starts)
        ]
        assert any(error is not None for _, error in outcomes), (
            "corpus must include a non-converging member for this test"
        )
        for g, (tg, start) in enumerate(zip(lowered, starts)):
            expected, expected_error = outcomes[g]
            assert _same_error(errors[g], expected_error)
            if expected_error is None:
                assert tg.decode_digits(start, digits[g]) == expected
            else:
                assert digits[g] is None

    def test_digit_row_count_is_validated(self):
        _games, lowered = _family("tiny-2x2x2s2", 3)
        batch = tensor.BatchTensorGame(lowered)
        with pytest.raises(ValueError, match="one digit row per game"):
            batch.best_response_digits([], max_rounds=4)


def test_repr_mentions_size():
    _games, lowered = _family("tiny-2x2x2s2", 5)
    assert "games=5" in repr(tensor.BatchTensorGame(lowered))


def test_stacked_tensors_are_game_major_copies():
    games, lowered = _family("tiny-2x2x2s2", 4)
    batch = tensor.BatchTensorGame(lowered)
    assert batch.probs.shape == (4, len(lowered[0].states))
    for s in range(len(lowered[0].states)):
        assert batch.state_costs[s].shape == (4,) + lowered[0].state_block(s).costs.shape
        for g, tg in enumerate(lowered):
            assert np.array_equal(
                batch.state_costs[s][g], tg.state_block(s).costs
            )
