"""``POST /v1/batch/evaluate`` and ``ServiceClient.evaluate_many``.

The batch endpoint must route through the structure-of-arrays engine
(one registry submit per spec, one ``BatchSession`` over the cached
sessions), answer one row per game in input order, isolate failures to
per-game structured error bodies, and interoperate with the single-game
endpoints' warm LRU entries in both directions.
"""

import pytest

from repro.analysis.census import population_game
from repro.core.session import GameSession, query
from repro.service.codec import coerce_spec, spec_to_wire

from fuzz_games import spec_for_seed
from test_server import raw_request

BUNDLE = [
    query("ignorance_report"),
    query("opt_p"),
    query("eq_c"),
    query("dynamics", max_rounds=8),
]


def _games(count):
    return [population_game("tiny-2x2x2s2", member) for member in range(count)]


def _expected_row(game):
    """The in-process per-game answer: values, or the first error."""
    session = GameSession(game)
    values = []
    for item in BUNDLE:
        try:
            values.append(session.evaluate([item])[0])
        except Exception as error:
            return ("error", type(error).__name__, str(error))
    return ("ok", values)


class TestBatchEvaluate:
    def test_rows_match_in_process_per_game_calls(self, client):
        games = _games(10)
        rows = client.evaluate_many(games, BUNDLE, on_error="return")
        expected = [_expected_row(game) for game in games]
        assert any(tag == "error" for tag, *_ in expected), (
            "corpus must include failing members for this test"
        )
        for row, want in zip(rows, expected):
            if want[0] == "error":
                assert isinstance(row, Exception)
                assert (type(row).__name__, str(row)) == want[1:]
            else:
                assert [
                    cell.as_dict() if hasattr(cell, "as_dict") else cell
                    for cell in row
                ] == [
                    cell.as_dict() if hasattr(cell, "as_dict") else cell
                    for cell in want[1]
                ]

    def test_raise_mode_reraises_the_first_failing_game(self, client):
        games = _games(10)
        expected = [_expected_row(game) for game in games]
        first = next(want for want in expected if want[0] == "error")
        with pytest.raises(RuntimeError) as info:
            client.evaluate_many(games, BUNDLE)
        assert str(info.value) == first[2]

    def test_unknown_on_error_mode_is_refused(self, client):
        with pytest.raises(ValueError, match="on_error"):
            client.evaluate_many(_games(1), BUNDLE, on_error="ignore")

    def test_batch_warms_the_single_game_cache(self, server, client):
        games = _games(4)
        client.evaluate_many(games, ["opt_p"], on_error="return")
        # Submits from the batch call sit in the LRU: the single-game
        # endpoint answers without a rebuild (a cache hit, not a miss).
        before = client.metrics()["cache"]
        key = client.submit(games[0])
        values = client.evaluate(key, ["opt_p"])
        after = client.metrics()["cache"]
        assert values == [GameSession(games[0]).evaluate([query("opt_p")])[0]]
        assert after["misses"] == before["misses"]

    def test_single_game_submit_warms_the_batch_path(self, server, client):
        games = _games(3)
        key = client.submit(games[1])
        warm = client.evaluate(key, ["opt_p"])
        rows = client.evaluate_many(games, ["opt_p"], on_error="return")
        assert rows[1] == warm

    def test_malformed_spec_slot_gets_a_400_body_others_answer(self, server):
        good = spec_to_wire(coerce_spec(population_game("tiny-2x2x2s2", 3)))
        status, body = raw_request(
            server, "POST", "/v1/batch/evaluate",
            {
                "games": [{"game": {"nonsense": True}}, {"game": good}],
                "queries": [{"measure": "opt_c", "params": {}}],
            },
        )
        assert status == 200
        assert body["count"] == 2
        bad_slot, good_slot = body["results"]
        assert bad_slot["status"] == 400
        assert bad_slot["error"]["code"] == "bad-request"
        assert "values" in good_slot

    def test_malformed_body_is_a_whole_request_400(self, server):
        status, body = raw_request(
            server, "POST", "/v1/batch/evaluate", {"games": "nope"}
        )
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        status, body = raw_request(
            server, "POST", "/v1/batch/evaluate", {"games": []}
        )
        assert status == 400

    def test_error_slots_carry_hashes_and_codes(self, server, client):
        games = _games(10)
        status, body = raw_request(
            server, "POST", "/v1/batch/evaluate",
            {
                "games": [
                    {"game": spec_to_wire(coerce_spec(game))}
                    for game in games
                ],
                "queries": [{"measure": "eq_p", "params": {}}],
            },
        )
        assert status == 200
        error_slots = [slot for slot in body["results"] if "error" in slot]
        ok_slots = [slot for slot in body["results"] if "values" in slot]
        assert error_slots and ok_slots
        for slot in error_slots:
            assert slot["error"]["code"] == "runtime-error"
            assert "hash" in slot
        for slot in ok_slots:
            assert "hash" in slot

    def test_fuzz_corpus_round_trips_through_the_batch_endpoint(self, client):
        specs = [spec_for_seed(seed) for seed in range(6)]
        games = [spec.build() for spec in specs]
        rows = client.evaluate_many(games, ["opt_c"], on_error="return")
        for game, row in zip(games, rows):
            assert row == [GameSession(game).evaluate([query("opt_c")])[0]]

    def test_metrics_meter_the_batch_endpoint(self, server, client):
        client.evaluate_many(_games(2), ["opt_c"], on_error="return")
        snapshot = client.metrics()
        assert snapshot["requests"]["pytest"]["batch-evaluate"] == 1
        assert "batch-evaluate" in snapshot["latency"]
