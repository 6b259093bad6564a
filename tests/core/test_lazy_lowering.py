"""Unit tests for the LRU block store (``repro.core.lazy``).

The engine-fuzz suite (``tests/engine_fuzz/test_lazy_fuzz.py``) owns the
randomized three-way value-parity battery; this file pins down the
*contract*: block-cache accounting and eviction, the ``lower_game_lazy``
guards, ``maybe_lower``'s store choice and its single cache slot,
``drop_lowering`` on the game and the NCS wrapper, registry eviction
freeing what it evicts, the LRU sweep against the pinned one, and the
acceptance path — a game whose full tabulation exceeds the dense cell
guard runs dynamics and targeted queries on the LRU store with no
reference fallback.
"""

import gc
import os
import sys
import weakref

import numpy as np
import pytest

# The NCS builders and the service's game corpus live next to their own
# suites; borrow them the same way tests/service/conftest.py does.
_TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(_TESTS, "engine_fuzz"))
sys.path.insert(0, os.path.join(_TESTS, "ncs"))

from repro.core import (
    BayesianGame,
    CommonPrior,
    GameSession,
    lower_game_lazy,
    query,
)
from repro.core import tensor
from repro.core.lazy import _BlockCache, default_cache_cells
from repro.core.tensor import (
    _LOWERED_ATTR,
    StateTensor,
    TensorGame,
    engine_override,
    lower_game,
    maybe_lower,
)
from repro._util import ExplosionError


def skew_game() -> BayesianGame:
    """Two agents, three actions; agent 0 observes the binary state."""
    action_spaces = [[0, 1, 2], [0, 1, 2]]
    type_spaces = [[0, 1], [0]]
    prior = CommonPrior({(0, 0): 0.6, (1, 0): 0.4})

    def cost(agent, profile, actions):
        state = profile[0]
        return float((actions[agent] - state) % 3) + 0.5 * abs(
            actions[0] - actions[1]
        )

    return BayesianGame(action_spaces, type_spaces, prior, cost, name="skew")


def tie_rich_game() -> BayesianGame:
    """Two agents with two types each over four states, integer-valued
    (tie-rich) costs: every agent's rows condition on two states."""
    rng = np.random.default_rng(0)
    table = rng.integers(0, 3, size=(2, 2, 2, 3, 3)).astype(float)
    prior = CommonPrior({(0, 0): 0.3, (0, 1): 0.2, (1, 0): 0.4, (1, 1): 0.1})

    def cost(agent, profile, actions):
        return float(table[(agent,) + tuple(profile) + tuple(actions)])

    return BayesianGame(
        [[0, 1, 2], [0, 1, 2]], [[0, 1], [0, 1]], prior, cost, name="ties"
    )


def _block(num_actions: int) -> StateTensor:
    """A 1-agent StateTensor with ``num_actions`` cells."""
    return StateTensor(np.zeros((1, num_actions)))


def _cache(budget: int) -> _BlockCache:
    """A cache whose miss path builds a ``s + 1``-cell block."""
    return _BlockCache(budget, lambda s: _block(s + 1))


def _is_lru(lowered) -> bool:
    return isinstance(lowered, TensorGame) and not lowered.pinned


def _tensor_attrs(game: BayesianGame) -> list:
    """The tensor-engine caches held on ``game``'s instance dict."""
    return sorted(name for name in vars(game) if name.startswith("_tensor_"))


def _no_walk(*args, **kwargs):
    raise AssertionError("maybe_lower re-walked a game it had cached")


# ----------------------------------------------------------------------
# _BlockCache
# ----------------------------------------------------------------------

class TestBlockCache:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="cache budget"):
            _cache(0)

    def test_hit_miss_counters_and_lru_membership(self):
        cache = _cache(100)
        assert cache.get(0) is None
        block = _block(3)
        cache.put(0, block)
        assert cache.get(0) is block
        assert (cache.hits, cache.misses) == (1, 1)
        assert 0 in cache and 1 not in cache
        assert len(cache) == 1
        assert cache.cells == 3

    def test_evicts_least_recently_used_first(self):
        cache = _cache(6)
        cache.put(0, _block(2))
        cache.put(1, _block(2))
        cache.put(2, _block(2))
        cache.get(0)  # refresh 0: LRU order is now 1, 2, 0
        cache.put(3, _block(2))
        assert 1 not in cache
        assert all(s in cache for s in (0, 2, 3))
        assert cache.evictions == 1
        assert cache.cells == 6

    def test_oversized_block_is_admitted_alone(self):
        cache = _cache(4)
        cache.put(0, _block(2))
        cache.put(1, _block(9))  # bigger than the whole budget
        assert 0 not in cache and 1 in cache
        assert cache.cells == 9
        cache.put(2, _block(2))
        assert 1 not in cache and 2 in cache
        assert cache.cells == 2

    def test_replacing_a_resident_key_does_not_double_count(self):
        cache = _cache(100)
        cache.put(0, _block(4))
        cache.put(0, _block(6))
        assert cache.cells == 6
        assert len(cache) == 1
        assert cache.evictions == 0

    def test_drop_releases_blocks_but_keeps_history(self):
        cache = _cache(100)
        cache.put(0, _block(4))
        cache.get(0)
        cache.drop()
        assert len(cache) == 0
        assert cache.cells == 0
        assert cache.hits == 1
        assert cache.get(0) is None  # re-materialization is a miss

    def test_indexing_tabulates_on_a_miss_only(self):
        cache = _cache(100)
        block = cache[2]
        assert block.costs.size == 3
        assert (cache.hits, cache.misses, cache.cells) == (0, 1, 3)
        assert cache[2] is block
        assert (cache.hits, cache.misses) == (1, 1)


# ----------------------------------------------------------------------
# lower_game_lazy
# ----------------------------------------------------------------------

class TestLowerGameLazy:
    def test_structural_metadata_matches_dense_lowering(self):
        game = skew_game()
        dense = lower_game(game)
        lazy = lower_game_lazy(game)
        assert dense is not None and lazy is not None
        assert lazy.states == dense.states
        assert np.array_equal(lazy.probs, dense.probs)
        blocks = [dense.state_block(s) for s in range(len(dense.states))]
        assert dense.pinned and not lazy.pinned
        shapes = [
            tuple(len(game.feasible_actions(i, ti)) for i, ti in enumerate(state))
            for state in dense.states
        ]
        assert lazy.state_shapes == dense.state_shapes == shapes
        assert lazy.state_sizes == dense.state_sizes == [
            b.costs.shape[1] for b in blocks
        ]
        assert lazy.state_strides == dense.state_strides == [
            tensor._c_strides(shape) for shape in shapes
        ]
        assert lazy.total_cells == dense.total_cells == sum(
            b.costs.size for b in blocks
        )
        assert lazy.profile_strides == dense.profile_strides
        assert lazy.profile_count() == dense.profile_count()
        # No block materialized until a kernel asks for one.
        assert lazy.cache_stats()["resident_blocks"] == 0

    def test_blocks_are_bit_identical_to_dense_state_tensors(self):
        game = skew_game()
        dense = lower_game(game)
        lazy = lower_game_lazy(game)
        for s in range(len(lazy.states)):
            block = lazy.state_block(s)
            for i in range(lazy.num_agents):
                assert np.array_equal(block.costs[i], dense.state_block(s).costs[i])

    def test_per_state_guard_refuses(self):
        game = skew_game()
        assert lower_game_lazy(game, max_action_profiles=8) is None

    def test_no_total_cell_guard(self, monkeypatch):
        monkeypatch.setattr(tensor, "TENSOR_MAX_CELLS", 1)
        game = skew_game()
        assert lower_game(game) is None  # dense refuses on total cells
        lazy = lower_game_lazy(game)  # lazy does not
        assert _is_lru(lazy)

    def test_default_budget_tracks_the_cell_guard(self, monkeypatch):
        monkeypatch.setattr(tensor, "TENSOR_MAX_CELLS", 7)
        assert default_cache_cells() == 28
        lazy = lower_game_lazy(skew_game())
        assert lazy.store.budget == 28

    def test_eviction_churn_stays_correct(self):
        game = skew_game()
        dense = lower_game(game)
        # Budget below one block (9 cells * 2 agents = 18): every access
        # evicts the other state's block.
        lazy = lower_game_lazy(game, cache_cells=18)
        for _ in range(3):
            for s in (0, 1, 0):
                block = lazy.state_block(s)
                assert np.array_equal(
                    block.costs[0], dense.state_block(s).costs[0]
                )
        stats = lazy.cache_stats()
        assert stats["evictions"] > 0
        assert stats["resident_cells"] <= stats["budget_cells"]
        assert "resident=" in repr(lazy)

    def test_peek_block_has_no_side_effects(self):
        lazy = lower_game_lazy(skew_game())
        assert lazy.store.peek(0) is None
        stats = lazy.cache_stats()
        assert stats["misses"] == 0 and stats["hits"] == 0
        block = lazy.state_block(0)
        assert lazy.store.peek(0) is block


# ----------------------------------------------------------------------
# maybe_lower: one store decision, one cache slot, and drop_lowering
# ----------------------------------------------------------------------

class TestMaybeLowerModes:
    """``maybe_lower`` picks the store from one structural walk and keeps
    its result, a refusal included, in the single ``_LOWERED_ATTR`` slot."""

    def test_reference_engine_forces_none(self):
        game = skew_game()
        with engine_override("reference"):
            assert maybe_lower(game) is None
        assert _tensor_attrs(game) == []

    def test_auto_prefers_dense_then_falls_to_lazy(self, monkeypatch):
        game = skew_game()
        dense = maybe_lower(game)
        assert dense.pinned and dense.cache_stats() is None
        assert _tensor_attrs(game) == [_LOWERED_ATTR]
        monkeypatch.setattr(tensor, "TENSOR_MAX_CELLS", 1)
        big = skew_game()
        lowered = maybe_lower(big)
        assert _is_lru(lowered)
        assert lowered.store.budget == default_cache_cells()
        # One slot holds the LRU lowering; no refusal is cached beside it.
        assert _tensor_attrs(big) == [_LOWERED_ATTR]
        assert big.__dict__[_LOWERED_ATTR][0] is lowered
        assert maybe_lower(big) is lowered

    def test_one_walk_past_the_cell_guard(self, monkeypatch):
        from repro.core import lazy

        calls = []
        real = tensor._lower

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(tensor, "_lower", counting)
        monkeypatch.setattr(lazy, "_lower", counting)
        monkeypatch.setattr(tensor, "TENSOR_MAX_CELLS", 1)
        game = skew_game()
        assert _is_lru(maybe_lower(game))
        assert len(calls) == 1
        maybe_lower(game)
        assert len(calls) == 1  # served from the slot

    def test_cached_lowering_answers_a_stricter_guard_without_a_walk(
        self, monkeypatch
    ):
        game = skew_game()
        lowered = maybe_lower(game)
        entry = game.__dict__[_LOWERED_ATTR]
        monkeypatch.setattr(tensor, "_lower", _no_walk)
        assert lowered.max_state_size == 9
        assert maybe_lower(game, max_action_profiles=8) is None
        assert game.__dict__[_LOWERED_ATTR] is entry  # nothing written
        assert maybe_lower(game, max_action_profiles=9) is lowered

    def test_per_state_guard_refuses_both_tiers(self, monkeypatch):
        game = skew_game()
        assert maybe_lower(game, max_action_profiles=8) is None
        # The refusal itself is cached, in the one slot.
        assert game.__dict__[_LOWERED_ATTR] == (None, 8)
        assert _tensor_attrs(game) == [_LOWERED_ATTR]
        with monkeypatch.context() as patch:
            patch.setattr(tensor, "_lower", _no_walk)
            assert maybe_lower(game, max_action_profiles=8) is None
            assert maybe_lower(game, max_action_profiles=4) is None
        # A looser guard invalidates the cached refusal.
        assert maybe_lower(game).pinned

    def test_drop_lowering_releases_every_cached_form(self):
        game = skew_game()
        lowered = maybe_lower(game)
        assert lowered is not None
        tensor.drop_lowering(game)
        assert _tensor_attrs(game) == []
        assert maybe_lower(game) is not lowered  # recompiled

    def test_maybe_state_tensor_reuses_lazy_blocks(self, monkeypatch):
        """A session's state optimum reads the LRU lowering's block: one
        miss, no second tabulation, the reference value."""
        monkeypatch.setattr(tensor, "TENSOR_MAX_CELLS", 1)
        game = skew_game()
        session = GameSession(game)
        lazy = session._kernel()
        assert _is_lru(lazy)
        state = tuple(game.prior.support()[0][0])
        value = session.state_optimum(state)
        stats = lazy.cache_stats()
        assert (stats["hits"], stats["misses"]) == (0, 1)
        with engine_override("reference"):
            assert value == GameSession(skew_game()).state_optimum(state)
        _assert_state_guard_raises_reference_error(game, state)
        assert _tensor_attrs(game) == [_LOWERED_ATTR]

    def test_maybe_state_tensor_reuses_pinned_blocks(self, monkeypatch):
        """A session's state optimum reads the pinned lowering's block:
        no tabulation and no cost call after lowering, the reference
        value."""
        game = skew_game()
        session = GameSession(game)
        dense = session._kernel()
        assert dense.pinned
        calls = []
        real_tabulate, real_cost = tensor._tabulate, game.cost

        def counting_tabulate(*args):
            calls.append("tabulate")
            return real_tabulate(*args)

        def counting_cost(*args):
            calls.append("cost")
            return real_cost(*args)

        monkeypatch.setattr(tensor, "_tabulate", counting_tabulate)
        monkeypatch.setattr(game, "cost", counting_cost)
        state = tuple(game.prior.support()[1][0])
        value = session.state_optimum(state)
        assert calls == []
        monkeypatch.undo()
        assert value == dense.state_block(dense.state_index[state]).optimum()
        with engine_override("reference"):
            assert value == GameSession(skew_game()).state_optimum(state)
        _assert_state_guard_raises_reference_error(game, state)
        assert _tensor_attrs(game) == [_LOWERED_ATTR]


def _assert_state_guard_raises_reference_error(game, state) -> None:
    """Under a per-state guard below the state's size the lowering is
    refused and the state optimum raises the reference enumeration's
    :class:`ExplosionError`."""
    session = GameSession(game, max_action_profiles=1)
    assert session._kernel() is None
    with pytest.raises(ExplosionError) as lowered:
        session.state_optimum(state)
    with engine_override("reference"):
        with pytest.raises(ExplosionError) as reference:
            GameSession(skew_game(), max_action_profiles=1).state_optimum(state)
    assert str(lowered.value) == str(reference.value)
    assert "action profiles" in str(lowered.value)


# ----------------------------------------------------------------------
# the sweep on the LRU store
# ----------------------------------------------------------------------

class TestRestrictedSweep:
    """The whole-space sweep on the LRU store.  (The class name predates
    the removal of restricted sweeps; it stays so these ids are stable.)"""

    def test_pinned_tables_and_lru_gather_agree_on_a_tie_rich_slice(self):
        """Multi-state rows with integer-valued (tie-rich) costs: the
        pinned store checks equilibria through its best-response tables,
        the LRU store through the gather, and the two sweeps must be
        equal field for field."""
        game = tie_rich_game()
        pinned = lower_game(game)
        lru = lower_game_lazy(game, cache_cells=9)
        tables = pinned._equilibrium_tables()
        multi = [
            (i, r)
            for i, rows in enumerate(pinned._cond)
            for r, row in enumerate(rows)
            if len(row.states) > 1
        ]
        assert multi and all(tables[i][r] is not None for i, r in multi)
        assert lru._equilibrium_tables() is None
        expected = pinned.sweep_profiles(10_000, collect_equilibria=True)
        assert len(expected.eq_indices) == 3
        assert lru.sweep_profiles(10_000, collect_equilibria=True) == expected
        assert lru.cache_stats()["evictions"] > 0

    def test_sweep_block_reads_are_pinned(self, monkeypatch):
        """Block-read accounting of LRU sweeps: the social pass reads
        every state once per profile block, the gather every conditional
        state once per row.  The counts are the per-game sweep's own,
        measured before it shared its kernel with the batch engine; six
        16-profile blocks and a three-block budget make them sensitive to
        both read sites."""
        monkeypatch.setattr(tensor, "BLOCK_CELLS", 64)
        lru = lower_game_lazy(tie_rich_game(), cache_cells=54)
        assert lru._block_size() == 16
        lru.sweep_profiles(10_000, collect_equilibria=True)
        stats = lru.cache_stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (11, 61, 58)


# ----------------------------------------------------------------------
# session dispatch, registry eviction
# ----------------------------------------------------------------------

class TestSessionLazyDispatch:
    def test_guarded_game_runs_on_lazy_tier_no_reference_fallback(
        self, monkeypatch
    ):
        monkeypatch.setattr(tensor, "TENSOR_MAX_CELLS", 1)
        game = skew_game()
        session = GameSession(game)
        assert session.lowered() is None  # dense refused...
        kernel = session._kernel()
        assert _is_lru(kernel)  # ...lazy engaged
        assert session.lazy_lowered() is kernel
        report = session.evaluate([query("ignorance_report")])[0]
        dynamics = session.best_response_dynamics()
        interim = session.interim_best_response(0, 1, dynamics)
        assert kernel.cache_stats()["misses"] > 0  # kernels, not reference

        with engine_override("reference"):
            ref_session = GameSession(skew_game())
            ref_report = ref_session.evaluate([query("ignorance_report")])[0]
            ref_dynamics = ref_session.best_response_dynamics()
            ref_interim = ref_session.interim_best_response(0, 1, ref_dynamics)
        assert report == ref_report
        assert dynamics == ref_dynamics
        assert interim == ref_interim

    def test_registry_eviction_drops_the_evicted_lowering(self):
        from fuzz_games import spec_for_seed
        from repro.service.registry import SessionRegistry

        registry = SessionRegistry(capacity=1)
        entry0, _ = registry.submit(spec_for_seed(0))
        lowered = weakref.ref(entry0.session._kernel())
        entry1, _ = registry.submit(spec_for_seed(1))
        assert entry0.game_hash not in registry
        # Eviction drops only the registry's reference: the caller's
        # entry still holds the session and its lowering...
        assert lowered() is not None
        enabled = gc.isenabled()
        gc.disable()
        try:
            del entry0
            # ...which reference counting frees once that reference goes.
            assert lowered() is None
        finally:
            if enabled:
                gc.enable()
        assert entry1.game_hash in registry
        assert registry.clear() == 1


# ----------------------------------------------------------------------
# NCS wrapper
# ----------------------------------------------------------------------

class TestNCSLazyTier:
    def _game(self):
        from ncs_games import maybe_active_partner_game

        game, _, _ = maybe_active_partner_game()
        return game

    def test_lowered_mode_and_drop(self, monkeypatch):
        monkeypatch.setattr(tensor, "TENSOR_MAX_CELLS", 1)
        game = self._game()
        lazy = game.lowered()
        assert _is_lru(lazy)
        assert game.lowered() is lazy
        game.drop_lowering()
        assert _tensor_attrs(game.game) == []

    def test_benevolent_descent_parity_on_the_lazy_tier(self, monkeypatch):
        from repro.ncs.opt import benevolent_descent

        with engine_override("reference"):
            ref_profile, ref_cost = benevolent_descent(self._game())
        monkeypatch.setattr(tensor, "TENSOR_MAX_CELLS", 1)
        game = self._game()
        lazy_profile, lazy_cost = benevolent_descent(game)
        assert _is_lru(game.lowered())
        assert lazy_profile == ref_profile
        assert lazy_cost == ref_cost
