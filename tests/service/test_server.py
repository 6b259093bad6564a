"""HTTP surface: endpoints, error bodies, metrics, CLI serve lifecycle."""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading

import pytest

from repro._util import ExplosionError
from repro.core.session import GameSession, query
from repro.service import (
    RemoteServiceError,
    ServiceClient,
    ServiceMetrics,
    SessionRegistry,
    game_hash,
    spec_to_wire,
    start_local_server,
)

from fuzz_games import spec_for_seed
from fuzz_harness import random_profiles
from test_codec import (
    BROKEN_COSTS,
    BROKEN_GAMES,
    NAN_ATOMS,
    broken_cost_wire,
    broken_game_wire,
    nan_atom_wire,
    two_by_two_wire,
)


def raw_request(server, method, path, payload=None):
    """One raw request, returning ``(status, decoded_body)``."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        connection.close()


#: The POST paths a ``dynamics`` query can take.
DYNAMICS_PATHS = ("dynamics", "evaluate", "batch")


def dynamics_request(server, path, spec, params):
    """Send ``params`` as one ``dynamics`` query for ``spec`` on ``path``.

    Returns ``(status, body)`` of the game's answer: the response for the
    single-game paths, the game's own row (its ``status``, 200 when the
    row holds values) for the batch endpoint, which itself must answer 200.
    """
    if path == "batch":
        status, body = raw_request(
            server, "POST", "/v1/batch/evaluate",
            {
                "games": [{"game": spec_to_wire(spec)}],
                "queries": [{"measure": "dynamics", "params": params}],
            },
        )
        assert status == 200, body
        row = body["results"][0]
        return row.get("status", 200), row
    status, body = raw_request(
        server, "POST", "/v1/games", {"game": spec_to_wire(spec)}
    )
    assert status in (200, 201), body
    url = f"/v1/games/{body['hash']}/{path}"
    if path == "dynamics":
        return raw_request(server, "POST", url, params)
    return raw_request(
        server, "POST", url,
        {"queries": [{"measure": "dynamics", "params": params}]},
    )


class TestEndpoints:
    def test_health(self, server, client):
        from repro import __version__

        body = client.health()
        assert body["status"] == "ok"
        assert body["version"] == __version__
        assert body["games"] == 0
        assert body["capacity"] == 8

    def test_submit_reports_creation_and_reuse(self, server):
        wire = spec_to_wire(spec_for_seed(0))
        status, body = raw_request(server, "POST", "/v1/games", {"game": wire})
        assert status == 201
        assert body["created"] is True
        assert body["hash"] == game_hash(spec_for_seed(0))
        status, body = raw_request(server, "POST", "/v1/games", {"game": wire})
        assert status == 200
        assert body["created"] is False

    def test_submit_accepts_a_bare_wire_spec(self, server):
        status, body = raw_request(
            server, "POST", "/v1/games", spec_to_wire(spec_for_seed(0))
        )
        assert status == 201
        assert body["hash"] == game_hash(spec_for_seed(0))

    def test_evaluate_matches_in_process_session(self, client):
        spec = spec_for_seed(3)
        queries = [
            query("ignorance_report"),
            query("eq_c", kind="worst"),
            query("opt_p"),
            query("state_optimum", profile=spec.support[0][0]),
        ]
        game_key = client.submit(spec)
        assert client.evaluate(game_key, queries) == GameSession(
            spec.build()
        ).evaluate(queries)

    def test_evaluate_accepts_bare_measure_names(self, client):
        spec = spec_for_seed(0)
        game_key = client.submit(spec)
        values = client.evaluate(game_key, ["opt_c", "ignorance_report"])
        session = GameSession(spec.build())
        assert values == session.evaluate(["opt_c", "ignorance_report"])

    def test_dynamics_default_and_custom_initial(self, client):
        spec = spec_for_seed(3)
        game_key = client.submit(spec)
        session = GameSession(spec.build())
        assert client.dynamics(game_key, max_rounds=60) == (
            session.best_response_dynamics(max_rounds=60)
        )
        initial, _ = random_profiles(spec)
        assert client.dynamics(game_key, initial=initial, max_rounds=60) == (
            session.best_response_dynamics(initial=initial, max_rounds=60)
        )

    def test_metrics_meter_clients_statuses_and_latency(self, server):
        spec = spec_for_seed(0)
        with ServiceClient(server.host, server.port, client_id="alice") as alice:
            game_key = alice.submit(spec)
            alice.evaluate(game_key, ["opt_c"])
        with ServiceClient(server.host, server.port, client_id="bob") as bob:
            bob.evaluate(game_key, ["opt_c"])
            metrics = bob.metrics()
        assert metrics["requests"]["alice"] == {"submit": 1, "evaluate": 1}
        assert metrics["requests"]["bob"]["evaluate"] == 1
        assert metrics["statuses"]["200"] >= 2
        assert metrics["statuses"]["201"] == 1
        assert metrics["cache"] == {"hits": 2, "misses": 1, "evictions": 0}
        evaluate = metrics["latency"]["evaluate"]
        assert evaluate["count"] == 2
        assert evaluate["p50_seconds"] <= evaluate["p95_seconds"]
        assert sum(evaluate["buckets"].values()) == 2


class TestErrorBodies:
    def test_unknown_endpoint_404(self, server):
        status, body = raw_request(server, "GET", "/v1/nope")
        assert status == 404
        assert body["error"]["code"] == "unknown-endpoint"

    def test_unknown_game_404(self, server, client):
        with pytest.raises(RemoteServiceError) as excinfo:
            client.evaluate("0" * 64, ["opt_c"])
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown-game"

    def test_malformed_json_400(self, server):
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            connection.request("POST", "/v1/games", body=b"{nope")
            response = connection.getresponse()
            body = json.loads(response.read().decode())
            assert response.status == 400
            assert body["error"]["code"] == "bad-request"
        finally:
            connection.close()

    def test_bad_game_payload_400(self, server):
        status, body = raw_request(
            server, "POST", "/v1/games", {"game": {"format": "nope"}}
        )
        assert status == 400
        assert body["error"]["code"] == "bad-request"

    def test_bad_query_bundle_400(self, server, client):
        game_key = client.submit(spec_for_seed(0))
        bundles = [
            [{"params": {}}],  # no "measure"
            # params present, not null and not an object
            [{"measure": "opt_p", "params": [1]}],
            [{"measure": "opt_p", "params": "x"}],
            [{"measure": "opt_p", "params": 5}],
        ]
        for queries in bundles:
            status, body = raw_request(
                server,
                "POST",
                f"/v1/games/{game_key}/evaluate",
                {"queries": queries},
            )
            assert status == 400, queries
            assert body["error"]["code"] == "bad-request"
            assert "malformed query bundle" in body["error"]["message"]

    @pytest.mark.parametrize("case", sorted(BROKEN_COSTS))
    def test_unusable_cost_table_is_a_submit_400(self, server, case):
        """A NaN, non-number or missing cost is refused when the game is
        submitted, on both submit paths, instead of failing its queries."""
        wire = broken_cost_wire(case)
        status, body = raw_request(server, "POST", "/v1/games", {"game": wire})
        assert status == 400, body
        assert body["error"]["code"] == "bad-request"
        status, body = raw_request(
            server, "POST", "/v1/batch/evaluate",
            {"games": [{"game": wire}], "queries": [{"measure": "opt_p"}]},
        )
        assert status == 200, body
        row = body["results"][0]
        assert row["status"] == 400, row
        assert row["error"]["code"] == "bad-request"
        assert len(server.registry) == 0

    @pytest.mark.parametrize("case", sorted(BROKEN_GAMES))
    def test_unusable_game_is_a_submit_400(self, server, case):
        """A prior the game cannot be built on, a duplicated support
        state, or a type without a usable feasible list is refused when
        the game is submitted, instead of answering a 500 there or
        failing every later query."""
        status, body = raw_request(
            server, "POST", "/v1/games", {"game": broken_game_wire(case)}
        )
        assert status == 400, body
        assert body["error"]["code"] == "bad-request"
        assert BROKEN_GAMES[case][1] in body["error"]["message"]
        assert len(server.registry) == 0

    @pytest.mark.parametrize("case", sorted(NAN_ATOMS))
    def test_nan_atom_is_a_submit_400(self, server, case):
        """A type or action that is or holds NaN is refused on both
        submit paths."""
        wire = nan_atom_wire(case)
        status, body = raw_request(server, "POST", "/v1/games", {"game": wire})
        assert status == 400, body
        assert "must not hold NaN" in body["error"]["message"]
        status, body = raw_request(
            server, "POST", "/v1/batch/evaluate",
            {"games": [{"game": wire}], "queries": [{"measure": "opt_p"}]},
        )
        assert status == 200, body
        assert body["results"][0]["status"] == 400, body
        assert len(server.registry) == 0

    @pytest.mark.parametrize("path", ["games", "evaluate", "dynamics", "batch"])
    def test_malformed_tagged_float_400(self, server, path):
        """A tagged float the codec cannot read is a bad request wherever
        it arrives: in a submitted game, in query params, and in one game
        of a batch, whose row alone fails."""
        bad = {"t": "float", "v": "abc"}
        broken = two_by_two_wire()
        broken["costs"][0]["cost"] = bad
        if path == "games":
            status, body = raw_request(server, "POST", "/v1/games", {"game": broken})
        elif path == "batch":
            status, body = raw_request(
                server, "POST", "/v1/batch/evaluate",
                {
                    "games": [{"game": broken}, {"game": two_by_two_wire()}],
                    "queries": [{"measure": "opt_p"}],
                },
            )
            assert status == 200, body
            assert "values" in body["results"][1], body
            status, body = body["results"][0]["status"], body["results"][0]
        else:
            status, body = raw_request(
                server, "POST", "/v1/games", {"game": two_by_two_wire()}
            )
            url = f"/v1/games/{body['hash']}/{path}"
            params = {"max_rounds": bad}
            if path == "evaluate":
                params = {"queries": [{"measure": "dynamics", "params": params}]}
            status, body = raw_request(server, "POST", url, params)
        assert status == 400, body
        assert body["error"]["code"] == "bad-request"
        assert "malformed float value: 'abc'" in body["error"]["message"]

    @pytest.mark.parametrize("path", DYNAMICS_PATHS)
    def test_bad_max_rounds_400(self, server, path):
        spec = spec_for_seed(0)
        # A JSON bool is a Python int; it must not pass as one round.
        for max_rounds in (0, True):
            status, body = dynamics_request(
                server, path, spec, {"max_rounds": max_rounds}
            )
            assert status == 400, (max_rounds, body)
            assert body["error"]["code"] == "bad-request"
            assert "max_rounds must be a positive int" in body["error"]["message"]

    @pytest.mark.parametrize("path", DYNAMICS_PATHS)
    def test_malformed_initial_400(self, server, path):
        """An ``initial`` that is not a strategy profile of the game is a
        bad request, not an error inside the dynamics."""
        from repro.service.codec import encode_result

        spec = spec_for_seed(3)
        valid, _ = random_profiles(spec)
        assert all(99 not in space for space in spec.action_spaces)
        # Agent 0's types: one of positive probability and one of zero
        # probability each forbid an action of the agent's action space.
        positive = set(spec.build().prior.positive_types(0))
        forbidden = {
            ti: [a for a in spec.action_spaces[0] if a not in spec.feasible[(0, ti)]]
            for ti in spec.type_spaces[0]
        }
        hot = next(ti for ti in spec.type_spaces[0] if ti in positive and forbidden[ti])
        cold = next(
            ti for ti in spec.type_spaces[0] if ti not in positive and forbidden[ti]
        )

        def with_agent0_action(ti, action):
            strategy = list(valid[0])
            strategy[spec.type_spaces[0].index(ti)] = action
            return (tuple(strategy),) + valid[1:]

        malformed = [
            5,
            "x",
            True,
            2.5,
            encode_result((1, 2)),
            encode_result(()),
            encode_result((valid[0] + valid[0][:1],) + valid[1:]),
            encode_result(((99,) + valid[0][1:],) + valid[1:]),
            encode_result(with_agent0_action(hot, forbidden[hot][0])),
        ]
        for initial in malformed:
            status, body = dynamics_request(server, path, spec, {"initial": initial})
            assert status == 400, (initial, body)
            assert body["error"]["code"] == "bad-request"
            assert "initial must hold" in body["error"]["message"]
        # The dynamics never read a zero-probability type's action, so an
        # infeasible one there is still a valid start.
        for initial in (valid, with_agent0_action(cold, forbidden[cold][0])):
            status, body = dynamics_request(
                server, path, spec, {"initial": encode_result(initial)}
            )
            assert status == 200, (initial, body)

    @pytest.mark.parametrize(
        "bad",
        [
            query("state_optimum", profile=5),
            query("state_optimum", profile=(0,)),
            query("state_optimum", profile=(99, 99)),
            query("state_optimum"),
            query("ratio", numerator="optP"),
            query("ratio", numerator="optP", denominator="nope"),
            query("ratio", numerator=["optP"], denominator="optC"),
        ],
        ids=[
            "profile-not-a-tuple",
            "profile-wrong-arity",
            "profile-unknown-types",
            "profile-missing",
            "denominator-missing",
            "denominator-unknown",
            "numerator-not-a-label",
        ],
    )
    def test_malformed_query_params_400(self, server, client, bad):
        """``state_optimum``'s profile and ``ratio``'s labels are checked
        before evaluation, on the single-game and the batch path."""
        spec = spec_for_seed(0)
        game_key = client.submit(spec)
        with pytest.raises(RemoteServiceError) as excinfo:
            client.evaluate(game_key, [query("opt_p"), bad])
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-request"
        rows = client.evaluate_many(
            [spec, spec_for_seed(1)], [bad], on_error="return"
        )
        assert isinstance(rows[0], RemoteServiceError)
        assert rows[0].status == 400 and rows[0].code == "bad-request"
        assert isinstance(rows[1], RemoteServiceError)

    def test_unmapped_evaluation_error_is_a_500(self):
        """An evaluation failure outside the mapped error types answers
        500 ``internal`` on ``/evaluate`` and becomes only that game's row
        on the batch endpoint."""
        broken = spec_for_seed(1)

        class Faulty(GameSession):
            def opt_c(self):
                raise TypeError("injected")

        def factory(spec):
            return (Faulty if spec == broken else GameSession)(spec.build())

        registry = SessionRegistry(4, session_factory=factory)
        server, _thread = start_local_server(registry=registry)
        try:
            with ServiceClient(server.host, server.port) as client:
                game_key = client.submit(broken)
                with pytest.raises(RemoteServiceError) as excinfo:
                    client.evaluate(game_key, ["opt_c"])
                assert excinfo.value.status == 500
                assert excinfo.value.code == "internal"
                assert "injected" in excinfo.value.remote_message
                healthy = spec_for_seed(0)
                rows = client.evaluate_many(
                    [healthy, broken], ["opt_c"], on_error="return"
                )
            assert rows[0] == GameSession(healthy.build()).evaluate(["opt_c"])
            assert isinstance(rows[1], RemoteServiceError)
            assert rows[1].status == 500 and rows[1].code == "internal"
        finally:
            server.shutdown()
            server.server_close()

    def test_unknown_measure_reraises_value_error(self, client):
        game_key = client.submit(spec_for_seed(0))
        session = GameSession(spec_for_seed(0).build())
        with pytest.raises(ValueError) as local:
            session.evaluate(["nope"])
        with pytest.raises(ValueError) as remote:
            client.evaluate(game_key, ["nope"])
        assert str(remote.value) == str(local.value)

    def test_unknown_measure_is_each_batch_rows_422(self, server, client):
        """The batch endpoint answers an unknown measure like ``/evaluate``
        does: 422 ``value-error`` with the same message, in every game's
        row, not a whole-request 500."""
        specs = [spec_for_seed(0), spec_for_seed(1)]
        bundle = [{"measure": "opt_p"}, {"measure": "nope"}]
        game_key = client.submit(specs[0])
        status, single = raw_request(
            server, "POST", f"/v1/games/{game_key}/evaluate", {"queries": bundle}
        )
        assert status == 422 and single["error"]["code"] == "value-error"
        status, body = raw_request(
            server, "POST", "/v1/batch/evaluate",
            {"games": [{"game": spec_to_wire(spec)} for spec in specs],
             "queries": bundle},
        )
        assert status == 200, body
        assert [row["status"] for row in body["results"]] == [422, 422]
        for row in body["results"]:
            assert row["error"] == single["error"]
        rows = client.evaluate_many(specs, ["opt_p", "nope"], on_error="return")
        with pytest.raises(ValueError) as local:
            GameSession(specs[0].build()).evaluate(["opt_p", "nope"])
        for row in rows:
            assert type(row) is ValueError and str(row) == str(local.value)

    def test_explosion_reconstructs_the_exact_exception(self):
        server, _thread = start_local_server(
            capacity=4, session_config={"max_strategy_profiles": 1}
        )
        try:
            spec = spec_for_seed(0)
            session = GameSession(spec.build(), max_strategy_profiles=1)
            with pytest.raises(ExplosionError) as local:
                session.evaluate(["opt_p"])
            with ServiceClient(server.host, server.port) as client:
                game_key = client.submit(spec)
                with pytest.raises(ExplosionError) as remote:
                    client.evaluate(game_key, ["opt_p"])
            assert str(remote.value) == str(local.value)
            assert remote.value.size == local.value.size
            assert remote.value.limit == local.value.limit
        finally:
            server.shutdown()
            server.server_close()

    def test_hash_collision_409(self):
        registry = SessionRegistry(
            4, hash_fn=lambda spec: "f" * 64, metrics=ServiceMetrics()
        )
        server, _thread = start_local_server(registry=registry)
        try:
            with ServiceClient(server.host, server.port) as client:
                client.submit(spec_for_seed(0))
                with pytest.raises(RemoteServiceError) as excinfo:
                    client.submit(spec_for_seed(1))
            assert excinfo.value.status == 409
            assert excinfo.value.code == "hash-collision"
        finally:
            server.shutdown()
            server.server_close()


class TestConcurrentClients:
    def test_eight_clients_share_one_lowering_and_agree(self, server):
        spec = spec_for_seed(3)
        queries = [query("ignorance_report"), query("eq_c", kind="both")]
        expected = GameSession(spec.build()).evaluate(queries)
        with ServiceClient(server.host, server.port, client_id="seed") as seed:
            game_key = seed.submit(spec)

        results = [None] * 8
        errors = []

        def worker(index):
            try:
                with ServiceClient(
                    server.host, server.port, client_id=f"w{index}"
                ) as client:
                    results[index] = client.evaluate(game_key, queries)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert all(result == expected for result in results)
        metrics = ServiceClient(server.host, server.port).metrics()
        # One lowering: the submit missed once, every evaluate hit.
        assert metrics["cache"]["misses"] == 1
        assert metrics["cache"]["hits"] == 8


class TestServeCLI:
    def test_serve_subprocess_health_then_sigterm(self, tmp_path):
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--capacity", "3",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, banner
            status, body = raw_request(
                type(
                    "Addr", (), {"host": "127.0.0.1", "port": int(match.group(1))}
                )(),
                "GET",
                "/health",
            )
            assert status == 200
            assert body["capacity"] == 3
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert "shut down cleanly" in out
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()

    def test_serve_rejects_bad_capacity(self, capsys):
        from repro.runtime.cli import main

        assert main(["serve", "--capacity", "0"]) == 2
        assert "capacity" in capsys.readouterr().err
