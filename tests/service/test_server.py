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

    def test_bad_max_rounds_400(self, server, client):
        game_key = client.submit(spec_for_seed(0))
        with pytest.raises(RemoteServiceError) as excinfo:
            client.dynamics(game_key, max_rounds=0)
        assert excinfo.value.status == 400
        # A JSON bool is a Python int; it must not pass as one round.
        status, body = raw_request(
            server, "POST", f"/v1/games/{game_key}/dynamics", {"max_rounds": True}
        )
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        assert "max_rounds must be a positive int" in body["error"]["message"]

    def test_malformed_initial_400(self, server, client):
        """An ``initial`` that is not a strategy profile of the game is a
        bad request, not an error inside the dynamics."""
        from repro.service.codec import encode_result

        spec = spec_for_seed(3)
        game_key = client.submit(spec)
        valid, _ = random_profiles(spec)
        assert all(99 not in space for space in spec.action_spaces)
        path = f"/v1/games/{game_key}/dynamics"
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
            status, body = raw_request(server, "POST", path, {"initial": initial})
            assert status == 400, (initial, body)
            assert body["error"]["code"] == "bad-request"
            assert "initial must hold" in body["error"]["message"]
        # The dynamics never read a zero-probability type's action, so an
        # infeasible one there is still a valid start.
        for initial in (valid, with_agent0_action(cold, forbidden[cold][0])):
            status, body = raw_request(
                server, "POST", path, {"initial": encode_result(initial)}
            )
            assert status == 200, (initial, body)

    def test_unknown_measure_reraises_value_error(self, client):
        game_key = client.submit(spec_for_seed(0))
        session = GameSession(spec_for_seed(0).build())
        with pytest.raises(ValueError) as local:
            session.evaluate(["nope"])
        with pytest.raises(ValueError) as remote:
            client.evaluate(game_key, ["nope"])
        assert str(remote.value) == str(local.value)

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
