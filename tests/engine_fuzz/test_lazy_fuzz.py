"""Randomized three-way differential tests for the LRU block store.

Every seeded fuzz game small enough to lower densely runs three ways —
the reference Python loops, ``TensorGame`` over the pinned store, and
``TensorGame`` over the LRU store under a deliberately tiny block cache
(so blocks evict and re-materialize mid-battery) — with exact-agreement
asserts over values *and* exceptions, including the structured
``ExplosionError(what, size, limit)`` payload.  The kernels are shared,
so the battery tests the store.  A failure shrinks the game to a local
minimum and fails with a self-contained repro.

The fault-injection self-tests corrupt the LRU store on purpose (skewed
re-materialization on its miss path, broken LRU accounting) and demand
the battery catches it — proof the three-way comparison actually bites.
Every fault is patched into :class:`_BlockCache`, which the pinned
column never touches.
"""

import pytest

from repro.core.lazy import _BlockCache, lower_game_lazy
from repro.core.tensor import StateTensor

from fuzz_games import spec_for_seed
from fuzz_harness import (
    LAZY_FUZZ_CACHE_CELLS,
    check_lazy_spec,
    format_lazy_failure,
    minimize_lazy,
    run_kernel_battery,
)

#: Seeded games replayed three ways (reference / dense / lazy).
N_LAZY_GAMES = 120
LAZY_CHUNK = 24
#: Chunks in the fast inner loop (`pytest -m "not slow"`).
LAZY_FAST_CHUNKS = 1


@pytest.mark.parametrize(
    "chunk",
    [
        pytest.param(
            chunk,
            marks=[pytest.mark.slow] if chunk >= LAZY_FAST_CHUNKS else [],
        )
        for chunk in range(N_LAZY_GAMES // LAZY_CHUNK)
    ],
)
def test_lazy_kernels_agree_three_ways(chunk):
    for seed in range(chunk * LAZY_CHUNK, (chunk + 1) * LAZY_CHUNK):
        spec = spec_for_seed(seed)
        mismatch = check_lazy_spec(spec)
        if mismatch is not None:
            minimized = minimize_lazy(mismatch)
            pytest.fail(format_lazy_failure(seed, mismatch, minimized))


def test_lazy_battery_actually_churns_the_cache():
    """The tiny fuzz budget must force evictions mid-battery — otherwise
    the re-materialization path the battery claims to cover never runs."""
    for seed in range(40):
        spec = spec_for_seed(seed)
        game = spec.build()
        lowered = lower_game_lazy(game, cache_cells=LAZY_FUZZ_CACHE_CELLS)
        assert lowered is not None
        if len(lowered.states) < 2:
            continue
        run_kernel_battery(spec, lowered)
        stats = lowered.cache_stats()
        if stats["evictions"] > 0:
            assert stats["misses"] > len(lowered.states)
            return
    pytest.fail("no fuzz game churned the block cache")


class TestHarnessDetectsFaults:
    """Self-tests: seeded faults in the lazy tier must be caught."""

    def _failing_seed(self):
        for seed in range(60):
            spec = spec_for_seed(seed)
            mismatch = check_lazy_spec(spec)
            if mismatch is not None:
                return seed, spec, mismatch
        return None

    def test_skewed_rematerialization_is_caught_and_minimized(
        self, monkeypatch
    ):
        """Corrupt blocks on *re*-materialization only: the LRU store's
        miss path tabulates cleanly the first time, so only eviction
        churn exposes the fault — exactly the path the battery targets."""
        original_init = _BlockCache.__init__

        def skewed_init(self, budget, tabulate):
            tabulated = set()

            def skewed(s):
                block = tabulate(s)
                if s in tabulated:
                    block = StateTensor(block.costs + 0.125)
                tabulated.add(s)
                return block

            original_init(self, budget, skewed)

        monkeypatch.setattr(_BlockCache, "__init__", skewed_init)
        found = self._failing_seed()
        assert found is not None, "skewed re-materialization went undetected"
        seed, spec, mismatch = found
        minimized = minimize_lazy(mismatch)
        assert minimized.disagreements
        assert len(minimized.spec.support) <= len(spec.support)
        report = format_lazy_failure(seed, mismatch, minimized)
        assert "lazy kernels" in report

    def test_broken_cache_accounting_is_caught(self, monkeypatch):
        """A cache that mis-tracks resident cells must trip the
        accounting invariant inside ``check_lazy_spec``."""

        original_put = _BlockCache.put

        def leaky_put(self, s, block):
            original_put(self, s, block)
            self.cells += 1  # drift: one phantom cell per insertion

        monkeypatch.setattr(_BlockCache, "put", leaky_put)
        with pytest.raises(AssertionError, match="accounting drifted"):
            for seed in range(10):
                check_lazy_spec(spec_for_seed(seed))

    def test_dropped_eviction_is_caught(self, monkeypatch):
        """A cache that silently refuses to admit blocks (so kernels
        recompute forever) still answers correctly — but one that evicts
        without updating its bookkeeping must be caught."""

        def no_bookkeeping_evict(self, s, block):
            size = block.costs.size
            while self._blocks and self.cells + size > self.budget:
                self._blocks.popitem(last=False)  # forgets cells/evictions
            self._blocks[s] = block
            self.cells += size

        monkeypatch.setattr(_BlockCache, "put", no_bookkeeping_evict)
        with pytest.raises(AssertionError, match="accounting drifted"):
            for seed in range(40):
                check_lazy_spec(spec_for_seed(seed))

    def test_clean_run_has_no_mismatch(self):
        assert self._failing_seed() is None
