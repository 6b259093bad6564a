"""``BatchSession.evaluate_many``: SoA dispatch vs the looped path.

The contract under test: rows come back in input order, every value and
every raised/captured error identical between ``kernels="auto"`` and
``kernels="loop"``, buckets group by lowering signature, non-lowerable
sessions fall back per game, and ``from_sessions`` refuses mixed
engines instead of silently racing them.
"""

import pytest

from repro.analysis.census import population_game
from repro.core.session import BatchSession, GameSession, query
from repro.core.strategy import greedy_strategy_profile

BUNDLE = [
    query("ignorance_report"),
    query("opt_p"),
    query("eq_p"),
    query("eq_c"),
    query("opt_c"),
    query("equilibria"),
    query("dynamics", max_rounds=8),
]


def _fold(rows):
    folded = []
    for row in rows:
        folded.append(
            [
                ("error", type(cell).__name__, str(cell))
                if isinstance(cell, Exception)
                else (cell.as_dict() if hasattr(cell, "as_dict") else cell)
                for cell in row
            ]
        )
    return folded


def _population(count, family="tiny-2x2x2s2", **config):
    return [
        GameSession(population_game(family, member), **config)
        for member in range(count)
    ]


class TestFromSessions:
    def test_mixed_engines_are_refused(self):
        sessions = [
            GameSession(population_game("tiny-2x2x2s2", 0), engine="auto"),
            GameSession(population_game("tiny-2x2x2s2", 1), engine="reference"),
        ]
        with pytest.raises(ValueError, match="share an engine"):
            BatchSession.from_sessions(sessions)

    def test_of_is_the_same_constructor(self):
        sessions = [
            GameSession(population_game("tiny-2x2x2s2", 0), engine="reference"),
            GameSession(population_game("tiny-2x2x2s2", 1), engine="reference"),
        ]
        batch = BatchSession.from_sessions(sessions)
        assert len(batch) == 2
        with pytest.raises(ValueError, match="share an engine"):
            BatchSession.from_sessions(
                sessions
                + [GameSession(population_game("tiny-2x2x2s2", 2), engine="auto")]
            )


class TestEvaluateMany:
    def test_soa_rows_match_looped_rows_including_errors(self):
        soa = BatchSession.from_sessions(_population(16)).evaluate_many(
            BUNDLE, kernels="auto", on_error="capture"
        )
        looped = BatchSession.from_sessions(_population(16)).evaluate_many(
            BUNDLE, kernels="loop", on_error="capture"
        )
        assert _fold(soa) == _fold(looped)
        assert any(
            isinstance(cell, Exception) for row in soa for cell in row
        ), "corpus must include failing members for this test"

    def test_default_kernels_are_auto(self):
        default = BatchSession.from_sessions(_population(6)).evaluate_many(
            BUNDLE, on_error="capture"
        )
        auto = BatchSession.from_sessions(_population(6)).evaluate_many(
            BUNDLE, kernels="auto", on_error="capture"
        )
        assert _fold(default) == _fold(auto)

    def test_raise_mode_propagates_the_first_failing_cell(self):
        batch = BatchSession.from_sessions(_population(16))
        captured = batch.evaluate_many(BUNDLE, on_error="capture")
        first = next(
            cell
            for row in captured
            for cell in row
            if isinstance(cell, Exception)
        )
        fresh = BatchSession.from_sessions(_population(16))
        with pytest.raises(type(first)) as info:
            fresh.evaluate_many(BUNDLE)
        assert str(info.value) == str(first)

    def test_rows_answer_warm_sessions_identically(self):
        sessions = _population(6)
        warm = [
            session.evaluate([query("opt_p")])[0] for session in sessions
        ]
        rows = BatchSession.from_sessions(sessions).evaluate_many(
            ["opt_p"], on_error="capture"
        )
        assert [row[0] for row in rows] == warm

    def test_reference_engine_falls_back_per_game(self):
        soa = BatchSession.from_sessions(
            _population(6, engine="reference")
        ).evaluate_many(BUNDLE, kernels="auto", on_error="capture")
        looped = BatchSession.from_sessions(
            _population(6, engine="reference")
        ).evaluate_many(BUNDLE, kernels="loop", on_error="capture")
        assert _fold(soa) == _fold(looped)

    def test_unknown_modes_are_refused(self):
        batch = BatchSession.from_sessions(_population(1))
        with pytest.raises(ValueError, match="kernels"):
            batch.evaluate_many(["opt_p"], kernels="simd")
        with pytest.raises(ValueError, match="kernels"):
            batch.evaluate_many(["opt_p"], kernels="soa")
        with pytest.raises(ValueError, match="on_error"):
            batch.evaluate_many(["opt_p"], on_error="ignore")

    def test_unknown_measure_fills_every_cell_before_any_work(self, monkeypatch):
        from repro.core import tensor

        swept = []
        original = tensor.TensorGame._sweep_lanes

        def spy(self, *args, **kwargs):
            swept.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(tensor.TensorGame, "_sweep_lanes", spy)
        bundle = [query("opt_p"), query("banana")]
        rows = BatchSession.from_sessions(_population(3)).evaluate_many(
            bundle, on_error="capture"
        )
        assert swept == []
        with pytest.raises(ValueError) as per_game:
            GameSession(population_game("tiny-2x2x2s2", 0)).evaluate(bundle)
        assert len(rows) == 3
        for row in rows:
            assert len(row) == 2
            for cell in row:
                assert type(cell) is ValueError
                assert str(cell) == str(per_game.value)
        with pytest.raises(ValueError, match="unknown measure"):
            BatchSession.from_sessions(_population(3)).evaluate_many(bundle)
        assert swept == []

    def test_list_parameters_match_per_game_rows(self):
        """``query`` freezes list parameters, so a list-valued ``initial``
        runs on the batch path exactly as it does per game."""
        games = [population_game("tiny-2x2x2s2", member) for member in range(6)]
        initial = [list(strategy) for strategy in greedy_strategy_profile(games[0])]
        item = query("dynamics", initial=initial, max_rounds=8)
        per_game = []
        for game in games:
            try:
                per_game.append(GameSession(game).evaluate([item]))
            except RuntimeError as error:  # non-convergence within 8 rounds
                per_game.append([error])
        for kernels in ("auto", "loop"):
            rows = BatchSession(games).evaluate_many(
                [item], kernels=kernels, on_error="capture"
            )
            assert _fold(rows) == _fold(per_game)
        assert item == query(
            "dynamics", initial=tuple(map(tuple, initial)), max_rounds=8
        )

    def test_empty_bundle_and_empty_batch(self):
        assert BatchSession.from_sessions(_population(2)).evaluate_many(
            []
        ) == [[], []]
        assert BatchSession.from_sessions([]).evaluate_many(["opt_p"]) == []


class TestBucketPlan:
    def test_same_shape_family_lands_in_one_bucket(self):
        plan = BatchSession.from_sessions(_population(5)).bucket_plan()
        assert plan == {"games": 5, "buckets": [5], "fallback": 0}

    def test_mixed_families_bucket_separately(self):
        sessions = _population(3) + _population(2, family="bench-3x2x2s4")
        plan = BatchSession.from_sessions(sessions).bucket_plan()
        assert plan["games"] == 5
        assert sorted(plan["buckets"]) == [2, 3]
        assert plan["fallback"] == 0

    def test_reference_sessions_count_as_fallback(self):
        plan = BatchSession.from_sessions(
            _population(4, engine="reference")
        ).bucket_plan()
        assert plan == {"games": 4, "buckets": [], "fallback": 4}

    def test_guard_splits_buckets_from_lowerable_games(self):
        sessions = _population(3)
        sessions.append(
            GameSession(
                population_game("tiny-2x2x2s2", 99), max_action_profiles=1
            )
        )
        plan = BatchSession.from_sessions(sessions).bucket_plan()
        assert plan["games"] == 4
        assert plan["fallback"] == 1
