"""A process-wide, size-bounded LRU of lowered :class:`GameSession`\\ s.

This is the cache the north star asks for: a long-lived process holds
*lowered games* (sessions with their tensor lowerings, memoized sweeps,
and per-state analyses), keyed by the canonical
:func:`~repro.service.codec.game_hash`, so many clients querying the
same game pay the lowering and the equilibrium enumeration **once**.

Lock discipline (see also ``docs/SERVICE.md``):

* The registry's own lock guards only the ``OrderedDict`` bookkeeping —
  lookups, insertions, recency updates, evictions.  It is never held
  while a game is built, lowered, or queried.
* Each entry's session carries its own reentrant lock
  (:attr:`repro.core.session.GameSession.lock`); callers hold it around
  query evaluation, so concurrent clients on the *same* game serialize
  against each other (sharing one lowering and one memo) while clients
  on *different* games run fully in parallel — the tensor kernels
  release the GIL, so parallel here means parallel.
* Eviction (and :meth:`SessionRegistry.clear`) only drops the
  registry's reference, and never takes a session lock.  A session holds
  no reference back to itself, so an idle evicted session is freed at
  once, with its game and its lowering, by reference counting alone.  A
  request that already resolved its entry keeps the session alive
  through its own reference, so eviction under load never poisons an
  in-flight query; the session is freed when that request lets it go.

Hash collisions are handled, not assumed away: an entry remembers its
spec, and a submit whose hash matches a *different* stored spec raises
:class:`HashCollisionError` instead of silently serving the wrong game
(the registry's ``hash_fn`` is injectable, which is also how the tests
force collisions).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.session import GameSession
from .codec import TabularGameSpec, game_hash
from .metrics import ServiceMetrics

#: Default LRU capacity (lowered sessions held simultaneously).
DEFAULT_CAPACITY = 64


class HashCollisionError(RuntimeError):
    """Two distinct game specs produced the same registry key."""


class UnknownGameError(KeyError):
    """No session is registered under the requested game hash."""


@dataclass
class SessionEntry:
    """One cached game: its spec, its long-lived session, usage stats."""

    game_hash: str
    spec: TabularGameSpec
    session: GameSession
    hits: int = 0


class SessionRegistry:
    """Thread-safe LRU mapping ``game_hash`` → :class:`SessionEntry`."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        session_config: Optional[Dict[str, Any]] = None,
        session_factory: Optional[
            Callable[[TabularGameSpec], GameSession]
        ] = None,
        hash_fn: Callable[[TabularGameSpec], str] = game_hash,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._hash_fn = hash_fn
        self._session_config = dict(session_config or {})
        self._session_factory = session_factory or self._default_factory
        self._entries: "OrderedDict[str, SessionEntry]" = OrderedDict()
        self._lock = threading.RLock()

    def _default_factory(self, spec: TabularGameSpec) -> GameSession:
        return GameSession(spec.build(), **self._session_config)

    # ------------------------------------------------------------------
    def submit(self, spec: TabularGameSpec) -> Tuple[SessionEntry, bool]:
        """Register ``spec``; returns ``(entry, created)``.

        Resubmitting an already-cached game is a cache hit: the existing
        entry is refreshed to most-recently-used and returned with
        ``created=False``.  The session is built *outside* the registry
        lock (building may lower the game), then inserted; if another
        thread raced the same spec in, the first insertion wins and the
        duplicate session is discarded — callers always share one.
        """
        key = self._hash_fn(spec)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._check_collision(entry, spec)
                self._touch(entry)
                return entry, False
        session = self._session_factory(spec)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                # Lost the build race: serve the established session.
                self._check_collision(entry, spec)
                self._touch(entry)
                return entry, False
            entry = SessionEntry(game_hash=key, spec=spec, session=session)
            self._entries[key] = entry
            self.metrics.record_cache("miss")
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.metrics.record_cache("eviction")
        return entry, True

    def get(self, key: str) -> SessionEntry:
        """The entry under ``key`` (refreshed to most-recently-used)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.metrics.record_cache("miss")
                raise UnknownGameError(key)
            self._touch(entry)
            return entry

    # ------------------------------------------------------------------
    def _check_collision(self, entry: SessionEntry, spec: TabularGameSpec) -> None:
        if entry.spec != spec:
            raise HashCollisionError(
                f"game hash {entry.game_hash} already maps to a different "
                f"game spec ({entry.spec.name!r} vs {spec.name!r})"
            )

    def _touch(self, entry: SessionEntry) -> None:
        self._entries.move_to_end(entry.game_hash)
        entry.hits += 1
        self.metrics.record_cache("hit")

    # ------------------------------------------------------------------
    def hashes(self) -> List[str]:
        """Cached hashes, least- to most-recently-used."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
        return dropped

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<SessionRegistry {len(self)}/{self.capacity} "
            f"hits={self.metrics.cache_hits} misses={self.metrics.cache_misses}>"
        )
