"""HTTP-vs-in-process differential parity on the fuzz corpus.

The same seeded games the cross-engine fuzzer replays
(``fuzz_games.spec_for_seed``: tabular and NCS families) are pushed
through :class:`ServiceClient` against a live server and through an
in-process :class:`GameSession`, measure by measure, folding raised
exceptions into comparable ``(tag, payload)`` outcomes exactly like
``fuzz_harness._outcome``.  Parity must be **exact** — bit-equal values
*and* identical exception types/messages — because the server maps
evaluation errors onto structured bodies the client re-raises verbatim.
"""

import pytest

from repro.core.session import GameSession, query
from repro.service import ServiceClient, start_local_server

from fuzz_games import spec_for_seed
from fuzz_harness import DYNAMICS_MAX_ROUNDS, _outcome, random_profiles

#: Seeded games replayed over HTTP (the CI gate demands >= 60).
N_GAMES = 72
CHUNK = 12
#: Chunks in the fast inner loop; the rest are ``slow`` (CI runs all).
FAST_CHUNKS = 2


def battery_queries(spec):
    """The evaluate-endpoint measure bundle for one game."""
    queries = [
        query("equilibria"),
        query("eq_p"),
        query("opt_p"),
        query("opt_c"),
        query("eq_c"),
        query("ignorance_report"),
    ]
    for profile, _ in spec.support:
        queries.append(query("state_optimum", profile=profile))
    return queries


def http_battery(client, game_key, spec):
    """Every probe through the wire, one outcome per key."""
    results = {}
    for item in battery_queries(spec):
        results[repr(item)] = _outcome(
            lambda q=item: client.evaluate(game_key, [q])[0]
        )
    initial, _ = random_profiles(spec)
    results["dynamics"] = _outcome(
        lambda: client.dynamics(game_key, max_rounds=DYNAMICS_MAX_ROUNDS)
    )
    results["dynamics_random"] = _outcome(
        lambda: client.dynamics(
            game_key, initial=initial, max_rounds=DYNAMICS_MAX_ROUNDS
        )
    )
    return results


def local_battery(spec, **session_config):
    """The same probes on a fresh in-process session."""
    session = GameSession(spec.build(), **session_config)
    results = {}
    for item in battery_queries(spec):
        results[repr(item)] = _outcome(
            lambda q=item: session.evaluate([q])[0]
        )
    initial, _ = random_profiles(spec)
    results["dynamics"] = _outcome(
        lambda: session.best_response_dynamics(max_rounds=DYNAMICS_MAX_ROUNDS)
    )
    results["dynamics_random"] = _outcome(
        lambda: session.best_response_dynamics(
            initial=initial, max_rounds=DYNAMICS_MAX_ROUNDS
        )
    )
    return results


def assert_parity(remote, local, seed):
    __tracebackhide__ = True
    disagreements = [
        f"  {key}:\n    http:       {remote[key]!r}\n"
        f"    in-process: {local[key]!r}"
        for key in local
        if remote[key] != local[key]
    ]
    if disagreements:
        pytest.fail(
            "HTTP vs in-process mismatch for fuzz seed "
            f"{seed} ({spec_for_seed(seed).meta}):\n" + "\n".join(disagreements)
        )


@pytest.fixture(scope="module")
def parity_server():
    server, _thread = start_local_server(capacity=max(N_GAMES, 16))
    with ServiceClient(server.host, server.port, client_id="parity") as client:
        yield client
    server.shutdown()
    server.server_close()


@pytest.mark.parametrize(
    "chunk",
    [
        pytest.param(
            chunk, marks=[pytest.mark.slow] if chunk >= FAST_CHUNKS else []
        )
        for chunk in range(N_GAMES // CHUNK)
    ],
)
def test_http_matches_in_process_on_fuzz_corpus(parity_server, chunk):
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        spec = spec_for_seed(seed)
        game_key = parity_server.submit(spec)
        assert_parity(
            http_battery(parity_server, game_key, spec),
            local_battery(spec),
            seed,
        )


@pytest.mark.parametrize("engine", ["reference", "auto"])
def test_parity_holds_with_the_engine_pinned(engine):
    """Servers pinned to either engine agree with equally pinned sessions.

    ``--engine`` on the CLI (``session_config={"engine": ...}`` on
    :class:`ServiceServer`) pins every served session; parity must hold
    per engine, not just under the process default.
    """
    server, _thread = start_local_server(
        capacity=16, session_config={"engine": engine}
    )
    try:
        with ServiceClient(server.host, server.port, client_id=engine) as client:
            for seed in range(6):
                spec = spec_for_seed(seed)
                game_key = client.submit(spec)
                assert_parity(
                    http_battery(client, game_key, spec),
                    local_battery(spec, engine=engine),
                    seed,
                )
    finally:
        server.shutdown()
        server.server_close()


def test_error_payload_parity_under_forced_explosions():
    """With a tiny profile guard every sweep explodes — identically.

    The point: error payloads cross the wire with full fidelity, so the
    exploding remote battery is outcome-for-outcome equal to the
    exploding in-process battery (same types, same messages, same
    ``(what, size, limit)``).
    """
    server, _thread = start_local_server(
        capacity=16, session_config={"max_strategy_profiles": 2}
    )
    try:
        with ServiceClient(server.host, server.port) as client:
            explosions = 0
            for seed in range(6):
                spec = spec_for_seed(seed)
                game_key = client.submit(spec)
                remote = http_battery(client, game_key, spec)
                local = local_battery(spec, max_strategy_profiles=2)
                assert_parity(remote, local, seed)
                explosions += sum(
                    1 for tag, _ in remote.values() if tag == "explosion"
                )
        assert explosions > 0  # the guard actually fired, remotely too
    finally:
        server.shutdown()
        server.server_close()
