"""Every session and lowering is freed by reference counting alone.

A lowering cached on its game (``maybe_lower``) must not keep that game
alive, and a session that memoized or captured an error must not keep
that error's traceback: either would form a reference cycle, and a
dropped session's cost blocks would stay resident until the cyclic
collector happened to run.  Each test here disables that collector, so
an object is freed exactly when its last strong reference goes.
"""

import gc
import os
import sys
import weakref

import pytest

_TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(_TESTS, "engine_fuzz"))
sys.path.insert(0, os.path.join(_TESTS, "ncs"))

from fuzz_games import spec_for_seed
from ncs_games import maybe_active_partner_game

from repro.analysis.census import population_game
from repro.core import BatchSession, GameSession, lower_game_lazy
from repro.core import tensor
from repro.core.tensor import maybe_lower
from repro.service.codec import coerce_spec
from repro.service.registry import SessionRegistry

#: Fuzz games for the bucketed batch; the bundle raises on seeds 18 and 22.
SEEDS = (0, 3, 5, 9, 18, 22)
BUNDLE = ["ignorance_report", "opt_p"]
#: Members 0-15 of this census family share one bucket, and the bundle
#: raises on 4 of them (no pure equilibrium, Bayesian or per state).
FAMILY = "tiny-2x2x2s2"


@pytest.fixture(autouse=True)
def reference_counting_only():
    """Run each test with the cyclic garbage collector disabled."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _game(seed=3):
    return spec_for_seed(seed).build()


class TestDroppedOwnerFreesItsLowering:
    def test_pinned_session(self):
        session = GameSession(_game())
        session.evaluate(BUNDLE)
        session.interim_best_response(0, 0, session.bayesian_equilibria()[0])
        assert session.lowered() is not None
        lowered = weakref.ref(session.lowered())
        del session
        assert lowered() is None

    def test_lru_session(self, monkeypatch):
        monkeypatch.setattr(tensor, "TENSOR_MAX_CELLS", 1)
        session = GameSession(_game())
        session.evaluate(BUNDLE)
        session.interim_best_response(0, 0, session.bayesian_equilibria()[0])
        assert session.lazy_lowered() is not None
        assert session.lazy_lowered().cache_stats()["resident_blocks"] > 0
        lowered = weakref.ref(session.lazy_lowered())
        del session
        assert lowered() is None

    def test_batch_session_buckets(self):
        # Each seed built twice: two same-signature games share a bucket.
        batch = BatchSession([_game(seed) for seed in SEEDS * 2])
        assert batch.bucket_plan()["buckets"] == [2] * len(SEEDS)
        rows = batch.evaluate_many(BUNDLE, on_error="capture")
        lowered = [weakref.ref(session.lowered()) for session in batch.sessions]
        del batch, rows
        assert [ref() for ref in lowered] == [None] * len(lowered)

    def test_ncs_wrapper(self):
        game = maybe_active_partner_game()[0]
        game.session().evaluate(BUNDLE)
        assert game.lowered() is not None
        lowered = weakref.ref(game.lowered())
        core = weakref.ref(game.game)
        del game
        assert (lowered(), core()) == (None, None)


def _members():
    return [population_game(FAMILY, member) for member in range(16)]


def _owned(sessions):
    """Weak references to each session and to its lowering."""
    return [ref for session in sessions for ref in (
        weakref.ref(session), weakref.ref(session.lowered())
    )]


class TestDroppedSessionWithErrorsIsFreed:
    def test_session_that_memoized_an_error(self):
        sessions = [GameSession(game) for game in _members()]
        failed = 0
        for session in sessions:
            for _ in range(2):  # computed, then served from the memo
                try:
                    session.evaluate(BUNDLE)
                except RuntimeError:
                    failed += 1
        assert failed == 2 * 4
        owned = _owned(sessions)
        del sessions, session
        assert [ref() for ref in owned] == [None] * len(owned)

    def test_capture_mode_batch_session(self):
        batch = BatchSession(_members())
        assert batch.bucket_plan()["buckets"] == [16]
        rows = batch.evaluate_many(BUNDLE, on_error="capture")
        errors = [cell for row in rows for cell in row if isinstance(cell, Exception)]
        assert len(errors) == 4
        assert [error.__traceback__ for error in errors] == [None] * 4
        owned = _owned(batch.sessions)
        del batch, rows, errors
        assert [ref() for ref in owned] == [None] * len(owned)

    def test_registry_eviction_and_clear(self):
        registry = SessionRegistry(capacity=8)
        owned = []
        for game in _members():
            entry, _ = registry.submit(coerce_spec(game))
            try:
                entry.session.evaluate(BUNDLE)
            except RuntimeError:
                pass
            owned.append(_owned([entry.session]))
        del entry
        evicted = [ref() for refs in owned[:8] for ref in refs]
        assert evicted == [None] * 16
        assert all(ref() is not None for refs in owned[8:] for ref in refs)
        assert registry.clear() == 8
        assert [ref() for refs in owned for ref in refs] == [None] * 32


class TestBackReference:
    def test_uncached_lowering_owns_its_game_and_a_cached_one_does_not(self):
        """An uncached lowering keeps its game (the fuzz harness reads
        ``lowered.game``); one cached on a game that has since died
        refuses to name it instead of answering ``None``."""
        uncached = lower_game_lazy(_game())
        gc.collect()
        assert uncached.game.name == "fuzz-tabular-3"
        game = _game()
        cached = maybe_lower(game)
        assert cached.game is game
        del game
        with pytest.raises(ReferenceError, match="no longer exists"):
            cached.game
