"""Golden spec digests of the constructions.

``game_hash(tabularize(...))`` covers every action and type list, the
prior and every cost float, so a construction that builds its game
another way must still land on these digests.  The random game is the
one perfbench's service workloads are built from (``service_base``):
its digest pins the benchmark's inputs.
"""

import numpy as np
import pytest

from repro.constructions.affine_game import build_affine_plane_game
from repro.constructions.diamond import diamond_bayesian_game
from repro.constructions.random_games import random_bayesian_ncs
from repro.service.codec import game_hash, tabularize


def service_base():
    return random_bayesian_ncs(
        3, 7, np.random.default_rng(20_300), directed=True,
        extra_edges=12, scenarios=4, name="perfbench-base",
    )


def diamond():
    game, _ = diamond_bayesian_game(1, np.random.default_rng(3), scenarios=4)
    return game


def affine_plane():
    return build_affine_plane_game(2).bayesian_game()


GOLDEN = {
    "perfbench-base": (
        service_base,
        "1a4be0c0a4e2394ebea58643eaeb22775bcbd5a3ee7525f5244e3acf07094133",
    ),
    "diamond-L1": (
        diamond,
        "3db8ce7426a9dd585a6bca156eee76c42318acfb56b81c9d173defb7e00aa178",
    ),
    "affine-plane-m2": (
        affine_plane,
        "5ae30a24c4a4744064fc8c2de3b556ff03a77776e5020831e54efdf1c4971200",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_construction_digest_is_pinned(name):
    build, digest = GOLDEN[name]
    game = build()
    assert game.name == name
    assert game_hash(tabularize(game.game)) == digest
