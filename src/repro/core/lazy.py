"""The LRU block store: tensor kernels for games too big to tabulate.

A game whose dense form exceeds :data:`~repro.core.tensor.TENSOR_MAX_CELLS`
cost cells is not pinned by :func:`repro.core.tensor.maybe_lower`; it
gets a :class:`_BlockCache` instead, which tabulates a state's
:class:`~repro.core.tensor.StateTensor` block the first time a kernel
touches it (in the pinned store's callback order) and keeps blocks under
an injectable cell budget.  Evicted blocks re-tabulate transparently, so
correctness never depends on residency.  The structural walk and every
kernel are :class:`~repro.core.tensor.TensorGame`'s own, so a value is
bit-identical whichever store served it.  :func:`lower_game_lazy` forces
this store, uncached.  See ``docs/ENGINE.md`` ("One kernel, two block
stores") for the cache contract and the dispatch rule.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional

from . import tensor as _tensor
from .game import BayesianGame
from .tensor import DEFAULT_MAX_ACTION_PROFILES, StateTensor, TensorGame, _lower


#: Default block-cache budget, in cost cells: four dense-lowering guards'
#: worth (a ``float64`` cell is 8 bytes, so this caps resident cost
#: tables at ~256 MiB).  A game whose *total* cells fit the budget
#: tabulates each block exactly once; bigger games churn the LRU but
#: stay correct.  Injectable via :func:`lower_game_lazy`.
def default_cache_cells() -> int:
    return 4 * _tensor.TENSOR_MAX_CELLS


class _BlockCache:
    """Bounded LRU of per-state cost blocks, tabulating on a miss.

    ``cache[s]`` is state ``s``'s block: resident blocks are served (and
    refreshed), missing ones come from ``tabulate(s)`` and are admitted.
    Tracks residency in *cells* (``costs.size`` per block) against a fixed
    budget: inserting a block evicts least-recently-used blocks until
    the new total fits.  A single block larger than the whole budget is
    still admitted (alone) — the cache bounds *residency*, it never
    refuses work.  Counters (`hits`/`misses`/`evictions`) are exposed
    for tests, benchmarks, and ops introspection.

    Not thread-safe on its own; the owning session's lock (or
    single-threaded use) is the synchronization contract, same as every
    other session-held cache.
    """

    __slots__ = (
        "budget", "tabulate", "cells", "hits", "misses", "evictions", "_blocks",
    )

    def __init__(
        self, budget: int, tabulate: Callable[[int], StateTensor]
    ) -> None:
        if budget < 1:
            raise ValueError(f"cache budget must be >= 1 cell, got {budget}")
        self.budget = int(budget)
        self.tabulate = tabulate
        self.cells = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._blocks: "OrderedDict[int, StateTensor]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, s: int) -> bool:
        return s in self._blocks

    def __getitem__(self, s: int) -> StateTensor:
        """The block of state ``s``, tabulated and admitted on a miss.

        A re-tabulated block is bit-identical to the evicted one (pure
        cost functions are part of the :class:`BayesianGame` contract).
        """
        block = self.get(s)
        if block is None:
            block = self.tabulate(s)
            self.put(s, block)
        return block

    def get(self, s: int) -> Optional[StateTensor]:
        block = self._blocks.get(s)
        if block is None:
            self.misses += 1
            return None
        self._blocks.move_to_end(s)
        self.hits += 1
        return block

    def peek(self, s: int) -> Optional[StateTensor]:
        """The resident block for state ``s``, or ``None`` (no side
        effects on the LRU order or counters)."""
        return self._blocks.get(s)

    def put(self, s: int, block: StateTensor) -> None:
        size = block.costs.size
        old = self._blocks.pop(s, None)
        if old is not None:
            self.cells -= old.costs.size
        while self._blocks and self.cells + size > self.budget:
            _, old = self._blocks.popitem(last=False)
            self.cells -= old.costs.size
            self.evictions += 1
        self._blocks[s] = block
        self.cells += size

    def drop(self) -> None:
        """Release every resident block (counters keep their history)."""
        self._blocks.clear()
        self.cells = 0

    def stats(self) -> Dict[str, int]:
        """A snapshot of the counters (for ops/tests)."""
        return {
            "budget_cells": self.budget,
            "resident_cells": self.cells,
            "resident_blocks": len(self._blocks),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def lower_game_lazy(
    game: BayesianGame,
    max_action_profiles: int = DEFAULT_MAX_ACTION_PROFILES,
    cache_cells: Optional[int] = None,
) -> Optional[TensorGame]:
    """Structurally compile ``game`` over the LRU store, or ``None``.

    Shares the pinned lowering's walk and its per-state guard — any
    support state whose feasible-action product exceeds
    ``max_action_profiles`` refuses (a single block that large should not
    be materialized either) — but deliberately has **no** total-cell
    guard: bounding total resident cells is the block cache's job
    (``cache_cells``, defaulting to :func:`default_cache_cells`).
    Uncached and engine-blind; :func:`repro.core.tensor.maybe_lower` is
    the cached, engine-aware path.  Being uncached, the result holds
    ``game`` strongly (``lowered.game`` stays valid for as long as the
    lowering lives); the game does not point back at it, so dropping the
    lowering frees its blocks at once.
    """
    budget = default_cache_cells() if cache_cells is None else cache_cells
    return _lower(
        game,
        max_action_profiles,
        lambda tabulate, _n, _cells: _BlockCache(budget, tabulate),
    )
