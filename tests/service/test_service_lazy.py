"""Lazy-tier wire-format parity.

A server whose sessions land on the lazy lowering (the dense cell guard
is patched down so full tabulation refuses) must ship the exact same
structured error bodies as the dense tier: an ``ExplosionError`` raised
inside an LRU-store :meth:`TensorGame.sweep_profiles` crosses the wire and is
rebuilt client-side with the identical message and ``(what, size,
limit)`` payload the in-process session raises.
"""

import pytest

from repro._util import ExplosionError
from repro.core import tensor
from repro.core.session import GameSession, query
from repro.service import ServiceClient, start_local_server

from fuzz_games import spec_for_seed

#: Strategy-profile guard small enough that every non-trivial sweep explodes.
TINY_GUARD = 2


def _local_explosion(spec):
    """The in-process lazy session's error for the same query, or None."""
    session = GameSession(spec.build(), max_strategy_profiles=TINY_GUARD)
    try:
        session.evaluate([query("opt_p")])
    except ExplosionError as error:
        assert session.lazy_lowered() is session._kernel()
        return error
    return None


def test_lazy_explosion_payload_crosses_the_wire(monkeypatch):
    monkeypatch.setattr(tensor, "TENSOR_MAX_CELLS", 1)
    server, _thread = start_local_server(
        capacity=4, session_config={"max_strategy_profiles": TINY_GUARD}
    )
    try:
        with ServiceClient(server.host, server.port, client_id="lazy") as client:
            exploded = 0
            for seed in range(6):
                spec = spec_for_seed(seed)
                local = _local_explosion(spec)
                if local is None:  # game small enough to sweep whole
                    continue
                game_key = client.submit(spec)
                # The server-side session must be on the lazy tier with
                # no dense form and no reference fallback.
                session = server.registry.get(game_key).session
                assert session.lowered() is None
                assert session.lazy_lowered() is session._kernel() is not None
                with pytest.raises(ExplosionError) as excinfo:
                    client.evaluate(game_key, [query("opt_p")])
                remote = excinfo.value
                assert str(remote) == str(local)
                assert remote.what == local.what == "strategy profiles"
                assert remote.size == local.size
                assert remote.limit == local.limit == TINY_GUARD
                exploded += 1
            assert exploded > 0  # the lazy guard actually fired remotely
    finally:
        server.shutdown()
        server.server_close()
