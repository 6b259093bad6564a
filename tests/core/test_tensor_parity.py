"""Tensor engine vs. reference enumeration: the parity suite.

Every canonical game is evaluated twice — once with the engine forced to
``reference`` (the per-profile Python oracle) and once through the
tensor lowering — on fresh game objects, so no cached lowering leaks
between the two paths.  Equilibrium *sets* must agree exactly (the
tensor kernels reproduce the reference fold order bit-for-bit); costs
and ratios agree to tolerance.
"""

import math
from itertools import product

import numpy as np
import pytest

from repro.core import (
    BayesianGame,
    CommonPrior,
    GameSession,
    MatrixGame,
    bayesian_equilibrium_extreme_costs,
    engine_override,
    enumerate_action_profiles,
    enumerate_bayesian_equilibria,
    enumerate_nash_equilibria,
    eq_c,
    get_engine,
    ignorance_report,
    lower_game,
    lower_game_lazy,
    maybe_lower,
    nash_extreme_costs,
    opt_p,
    state_optimum,
)
from repro.analysis.census import population_game
from repro.core import tensor
from repro.core.tensor import (
    StateTensor,
    TensorGame,
    lt_array,
    nash_masks,
    stack_lanes,
)
from repro.core.strategy import DEFAULT_MAX_PROFILES
from repro._util import TOLERANCE, ExplosionError, lt

from canonical_games import (
    coordination_game,
    informed_coordination_game,
    matching_pennies,
    matching_state_game,
    prisoners_dilemma,
)

BUILDERS = (
    matching_state_game,
    informed_coordination_game,
    lambda: prisoners_dilemma().to_bayesian(),
    lambda: coordination_game().to_bayesian(),
)


def _both_engines(compute, builder):
    """``compute`` on fresh games under each engine; returns (ref, tensor)."""
    with engine_override("reference"):
        reference = compute(builder())
    with engine_override("auto"):
        tensorized = compute(builder())
    return reference, tensorized


class TestEngineSelection:
    def test_override_restores_previous_engine(self):
        before = get_engine()
        with engine_override("reference"):
            assert get_engine() == "reference"
        assert get_engine() == before

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            with engine_override("gpu"):
                pass  # pragma: no cover

    def test_override_is_thread_local(self):
        """Concurrent thread-backend tasks must not race the engine."""
        import threading

        seen = {}
        entered = threading.Barrier(2)

        def pin(name):
            with engine_override(name):
                entered.wait(timeout=10)
                seen[name] = get_engine()

        threads = [
            threading.Thread(target=pin, args=(name,))
            for name in ("reference", "auto")
        ]
        before = get_engine()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Each thread saw only its own override; nothing leaked out.
        assert seen == {"reference": "reference", "auto": "auto"}
        assert get_engine() == before

    def test_concurrent_engine_flips_do_not_race(self):
        """Regression: two threads flipping engines concurrently.

        The pre-contextvars ``set_engine`` mutated a plain module global,
        so one thread's flip could leak into the other mid-evaluation
        under ``--backend thread``.  With context-scoped overrides every
        flip — including nested ones and actual lowering decisions — is
        observable only inside its own thread.
        """
        import threading

        flips = 200
        errors = []
        start = threading.Barrier(2)

        def flip(name, other):
            try:
                start.wait(timeout=10)
                for _ in range(flips):
                    with engine_override(name):
                        if get_engine() != name:
                            errors.append(f"{name}: saw {get_engine()}")
                        # Lowering honors this thread's pin, not the
                        # other thread's concurrent flips.
                        lowered = maybe_lower(matching_state_game())
                        if (lowered is None) != (name == "reference"):
                            errors.append(f"{name}: lowering raced")
                        with engine_override(other):
                            if get_engine() != other:
                                errors.append(f"{name}: nested flip lost")
                        if get_engine() != name:
                            errors.append(f"{name}: outer pin not restored")
            except Exception as error:  # pragma: no cover - debug aid
                errors.append(repr(error))

        threads = [
            threading.Thread(target=flip, args=("reference", "auto")),
            threading.Thread(target=flip, args=("auto", "reference")),
        ]
        before = get_engine()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert get_engine() == before

    def test_reference_engine_disables_lowering(self, matching_state):
        with engine_override("reference"):
            assert maybe_lower(matching_state) is None

    def test_lowering_is_cached(self, matching_state):
        first = maybe_lower(matching_state)
        assert first is not None
        assert maybe_lower(matching_state) is first


class TestLtArray:
    def test_matches_scalar_semantics(self):
        inf = math.inf
        a = np.array([1.0, 1.0, 1.0, inf, 1.0, inf])
        b = np.array([2.0, 1.0 + 1e-12, 1.0 + 1.0, inf, inf, 1.0])
        assert lt_array(a, b).tolist() == [True, False, True, False, True, False]

    def test_agrees_with_scalar_lt_elementwise(self):
        """The pinned store's equilibrium tables use ``lt_array`` while the
        reference loop uses the scalar ``lt``: exact parity needs the two
        to agree on every pair, above all at the tolerance boundary."""
        pairs = []
        for base in [0.0, 1.0, -1.0, 0.5, -0.5, 2.5, -7.25, 1e-9, 1e3, -1e3, 1e12]:
            scale = max(1.0, abs(base))
            for sign in (1.0, -1.0):
                edge = base + sign * TOLERANCE * scale
                for other in (
                    edge, np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf)
                ):
                    pairs += [(other, base), (base, other)]
        special = [math.inf, -math.inf, math.nan, 0.0, 1.0, -2.0]
        pairs += [(x, y) for x in special for y in special]
        a = np.array([x for x, _ in pairs])
        b = np.array([y for _, y in pairs])
        assert lt_array(a, b).tolist() == [lt(float(x), float(y)) for x, y in pairs]
        # The boundary cases are not vacuous: both outcomes occur at them.
        assert {lt(float(x), float(y)) for x, y in pairs[:12]} == {True, False}


class TestBayesianParity:
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_equilibrium_sets_exact(self, builder):
        reference, tensorized = _both_engines(enumerate_bayesian_equilibria, builder)
        assert reference == tensorized

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_extreme_costs(self, builder):
        reference, tensorized = _both_engines(
            bayesian_equilibrium_extreme_costs, builder
        )
        assert tensorized == pytest.approx(reference, abs=1e-12)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_opt_p(self, builder):
        reference, tensorized = _both_engines(opt_p, builder)
        assert tensorized == pytest.approx(reference, abs=1e-12)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_eq_c(self, builder):
        reference, tensorized = _both_engines(eq_c, builder)
        assert tensorized == pytest.approx(reference, abs=1e-12)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_ignorance_report_all_six(self, builder):
        reference, tensorized = _both_engines(
            lambda game: ignorance_report(game).as_dict(), builder
        )
        for key, value in reference.items():
            assert tensorized[key] == pytest.approx(value, abs=1e-12), key

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_all_nine_ratios(self, builder):
        reference, tensorized = _both_engines(lambda g: ignorance_report(g), builder)
        for numerator in ("optP", "best-eqP", "worst-eqP"):
            for denominator in ("optC", "best-eqC", "worst-eqC"):
                assert tensorized.ratio(numerator, denominator) == pytest.approx(
                    reference.ratio(numerator, denominator), abs=1e-12
                )


def _assert_block_nash_matches(lowered, is_nash):
    """The pure-Nash fold on a one-state lowering's cost block agrees
    with the reference verdict ``is_nash(actions)`` profile by profile,
    in the block's C-order (the reference enumeration order)."""
    block = lowered.state_block(0)
    masks, errors = nash_masks(block.costs[None], lowered.state_shapes[0])
    assert errors == [None]
    underlying = lowered.game.underlying_game(lowered.states[0])
    profiles = list(enumerate_action_profiles(underlying))
    assert len(profiles) == lowered.state_sizes[0] == masks.shape[1]
    for flat, actions in enumerate(profiles):
        assert bool(masks[0, flat]) is is_nash(actions), actions


class TestNashParity:
    @pytest.mark.parametrize(
        "matrix", (prisoners_dilemma, coordination_game, matching_pennies)
    )
    def test_underlying_nash_sets_exact(self, matrix):
        game = matrix().to_bayesian()
        lowered = lower_game(game)
        assert lowered is not None and lowered.states == [(0, 0)]
        reference = enumerate_nash_equilibria(game.underlying_game((0, 0)))
        _assert_block_nash_matches(lowered, lambda actions: actions in reference)

    def test_no_nash_raises_in_both_engines(self):
        for engine in ("reference", "auto"):
            with engine_override(engine):
                game = matching_pennies().to_bayesian().underlying_game((0, 0))
                with pytest.raises(RuntimeError, match="no pure Nash"):
                    nash_extreme_costs(game)

    def test_state_optimum(self, matching_state):
        for profile in ((0, 0), (1, 0)):
            with engine_override("reference"):
                reference = state_optimum(matching_state_game(), profile)
            assert state_optimum(matching_state, profile) == pytest.approx(
                reference, abs=1e-12
            )

    def test_matrix_game_nash_and_optimum(self):
        for build in (prisoners_dilemma, coordination_game, matching_pennies):
            with engine_override("reference"):
                game = build()
                reference = (game.nash_equilibria(), game.optimum())
            game = build()
            assert (game.nash_equilibria(), game.optimum()) == reference

    def test_random_matrix_games_match(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            game = MatrixGame.random((3, 4, 2), rng)
            lowered = lower_game(game.to_bayesian())
            assert lowered is not None
            _assert_block_nash_matches(lowered, game.is_nash)


class TestGuards:
    def test_strategy_profile_guard_matches_reference(self, matching_state):
        lowered = maybe_lower(matching_state)
        assert lowered is not None
        with pytest.raises(ExplosionError, match="strategy profiles"):
            lowered.sweep_profiles(max_profiles=3)
        with engine_override("reference"):
            with pytest.raises(ExplosionError, match="strategy profiles"):
                bayesian_equilibrium_extreme_costs(matching_state_game(), 3)

    def test_oversized_state_refuses_to_lower(self, matching_state):
        """A guard below a state's size refuses the lowering, so the
        state optimum raises the reference enumeration's error."""
        session = GameSession(matching_state, max_action_profiles=1)
        assert session._kernel() is None
        with pytest.raises(ExplosionError, match="action profiles") as lowered:
            session.state_optimum((0, 0))
        with engine_override("reference"):
            with pytest.raises(ExplosionError) as reference:
                GameSession(
                    matching_state_game(), max_action_profiles=1
                ).state_optimum((0, 0))
        assert str(lowered.value) == str(reference.value)

    def test_oversized_game_refuses_to_lower(self):
        assert lower_game(matching_state_game(), max_action_profiles=1) is None

    def test_blocked_sweep_matches_unblocked(self, monkeypatch):
        """Forcing tiny blocks must not change any aggregate, for one
        game or a three-lane batch (both run the one sweep kernel)."""
        game = informed_coordination_game()
        lowered = lower_game(game)
        assert lowered is not None
        bucket = [maybe_lower(population_game("bench-3x2x2s4", m)) for m in range(3)]
        lanes = stack_lanes(bucket)

        def sweeps():
            return (
                lowered.sweep_profiles(DEFAULT_MAX_PROFILES, collect_equilibria=True),
                bucket[0]._sweep_lanes(lanes, DEFAULT_MAX_PROFILES, True, True),
            )

        full = sweeps()
        assert full[1][1] == [None] * 3
        monkeypatch.setattr(TensorGame, "_block_size", lambda self, group=1: 1)
        blocked = sweeps()
        assert blocked == full


def _radix_game(radices_per_agent):
    """A game whose agents' strategy digits have the given radices: agent
    ``i`` has one type per entry, that type's feasible actions are
    ``range(n)``, and every type profile is in the (uniform) support."""
    widest = max(n for radices in radices_per_agent for n in radices)
    types = [list(range(len(radices))) for radices in radices_per_agent]
    states = list(product(*types))
    return BayesianGame(
        action_spaces=[list(range(widest)) for _ in radices_per_agent],
        type_spaces=types,
        prior=CommonPrior({state: 1.0 / len(states) for state in states}),
        cost_fn=lambda i, t, a: float((3 * a[i] + 5 * sum(a) + 7 * sum(t) + i) % 11),
        feasible_fn=lambda i, ti: list(range(radices_per_agent[i][ti])),
    )


def _sweep_forms(lowered):
    """The sweep's index forms: every state's flat cell, then every
    row's own digit."""
    k = lowered.num_agents
    forms = [
        [(strides[i], i, lowered._state_pos[i][s]) for i in range(k)]
        for s, strides in enumerate(lowered.state_strides)
    ]
    forms += [[(1, i, row.tpos)] for i in range(k) for row in lowered._cond[i]]
    return forms


def _digit_formula(lowered, form, lo, hi):
    """``form`` at profiles ``lo..hi-1``, digit by digit from the profile
    index (the per-block arithmetic the split replaces)."""
    flat = np.arange(lo, hi, dtype=np.int64)
    value = np.zeros(hi - lo, dtype=np.int64)
    for coef, i, p in form:
        agent = lowered.agents[i]
        strategy = (flat // lowered.profile_strides[i]) % agent.exact_count
        value += coef * ((strategy // agent.strides[p]) % agent.radix[p])
    return value


class TestProfileIndexSplit:
    """``_profile_indexer`` splits a profile index at a radix period; its
    per-block indices must equal the digit formula whatever the block."""

    def _assert_blocks_match(self, lowered, block):
        forms = _sweep_forms(lowered)
        indices = lowered._profile_indexer(forms, block)
        total = int(lowered.profile_count())
        for lo in range(0, total, block):
            hi = min(total, lo + block)
            got = indices(lo, hi)
            assert len(got) == len(forms)
            for form, index in zip(forms, got):
                assert index.tolist() == _digit_formula(lowered, form, lo, hi).tolist()

    def _assert_sweeps_unchanged(self, monkeypatch, game, cells, block):
        lowered = lower_game(game)
        full = lowered.sweep_profiles(DEFAULT_MAX_PROFILES, collect_equilibria=True)
        free = lowered.sweep_profiles(DEFAULT_MAX_PROFILES, check_equilibria=False)
        gathered = lower_game_lazy(game).sweep_profiles(
            DEFAULT_MAX_PROFILES, collect_equilibria=True
        )
        monkeypatch.setattr(tensor, "BLOCK_CELLS", cells)
        assert lowered._block_size() == block
        self._assert_blocks_match(lowered, block)
        assert lowered.sweep_profiles(DEFAULT_MAX_PROFILES, collect_equilibria=True) == full
        assert lowered.sweep_profiles(DEFAULT_MAX_PROFILES, check_equilibria=False) == free
        lru = lower_game_lazy(game)
        assert lru.sweep_profiles(DEFAULT_MAX_PROFILES, collect_equilibria=True) == gathered
        assert gathered == full

    def test_blocks_start_mid_period(self, monkeypatch):
        """Radix-3 digits: suffix products 81, 27, 9, 3, 1 against a
        10-profile block put the period at 9, so block ``b`` starts at
        offset ``b`` of its period."""
        game = _radix_game([[3, 3], [3, 3]])
        self._assert_sweeps_unchanged(monkeypatch, game, cells=40, block=10)

    def test_digit_radix_exceeds_block(self, monkeypatch):
        """The last digit's radix (12) exceeds the 10-profile block, so the
        period is 1 and every digit is a head digit."""
        game = _radix_game([[2, 2], [12]])
        self._assert_sweeps_unchanged(monkeypatch, game, cells=120, block=10)

    def test_whole_space_in_one_block(self):
        """``total <= block``: no head digits, and the indexer hands back
        the tails it built, with no per-block work."""
        lowered = lower_game(_radix_game([[3, 2], [2, 3]]))
        total = int(lowered.profile_count())
        assert total <= lowered._block_size()
        indices = lowered._profile_indexer(_sweep_forms(lowered), lowered._block_size())
        assert indices(0, total) is indices(0, total)
        self._assert_blocks_match(lowered, lowered._block_size())

    def test_stacked_lanes_with_mid_period_blocks(self, monkeypatch):
        """Three lanes of binary digits: a 10-profile block against
        power-of-two periods (period 8), every lane as its game alone."""
        bucket = [maybe_lower(population_game("bench-3x2x2s4", m)) for m in range(3)]
        alone = [
            lowered.sweep_profiles(DEFAULT_MAX_PROFILES, collect_equilibria=True)
            for lowered in bucket
        ]
        monkeypatch.setattr(tensor, "BLOCK_CELLS", 10 * 3 * 4)
        assert bucket[0]._block_size(3) == 10
        self._assert_blocks_match(bucket[0], 10)
        sweeps, errors = bucket[0]._sweep_lanes(
            stack_lanes(bucket), DEFAULT_MAX_PROFILES, True, True
        )
        assert errors == [None] * 3
        assert sweeps == alone


class TestLoweringInternals:
    def test_state_tensor_orders_match_reference_enumeration(self, matching_state):
        lowered = lower_game(matching_state)
        assert lowered is not None
        assert lowered.states == [(0, 0), (1, 0)]
        state = lowered.state_block(0)
        assert isinstance(state, StateTensor)
        # Flat C-order cells follow the reference enumeration of the
        # feasible lists, and each cell holds that profile's costs.
        underlying = matching_state.underlying_game((0, 0))
        profiles = list(enumerate_action_profiles(underlying))
        assert profiles == [(0, 0), (0, 1), (1, 0), (1, 1)]
        axes = [
            lowered.agents[i].choices[lowered._state_pos[i][0]] for i in range(2)
        ]
        assert list(product(*axes)) == profiles
        for flat, actions in enumerate(profiles):
            assert state.costs[:, flat].tolist() == [
                underlying.cost(agent, actions) for agent in range(2)
            ]
            assert state.social[flat] == underlying.social_cost(actions)

    def test_profile_decode_covers_reference_order(self, matching_state):
        from repro.core.strategy import enumerate_strategy_profiles

        lowered = lower_game(matching_state)
        assert lowered is not None
        reference = list(enumerate_strategy_profiles(matching_state))
        decoded = [
            lowered.decode_profile(flat)
            for flat in range(int(lowered.profile_count()))
        ]
        assert decoded == reference

    def test_zero_probability_types_pinned(self):
        """Zero-probability types contribute radix 1, like the reference."""
        prior = CommonPrior({("a", 0): 0.5, ("b", 0): 0.5})
        game = BayesianGame(
            action_spaces=[[0, 1], [0, 1]],
            type_spaces=[["a", "b", "ghost"], [0]],
            prior=prior,
            cost_fn=lambda i, t, a: float(a[0] != a[1]),
        )
        lowered = lower_game(game)
        assert lowered is not None
        assert lowered.agents[0].radix == (2, 2, 1)
        assert lowered.profile_count() == 8
