"""Span tracing from outside the program: wrap a layer's public calls.

The program itself carries no tracing.  :class:`Tracer` records spans
(name, start, end, parent, request id) in memory; :func:`patched`
replaces an attribute with a timing wrapper for the duration of a
``with`` block.  The per-layer wrappers for the server live in
:func:`server_patches` (installed by ``perf_server.py`` inside the
server subprocess) and for the queued census path in
:func:`census_patches` (installed in the benchmark process).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Header carrying the benchmark's request id to the traced server.
REQUEST_HEADER = "X-Perfbench-Request"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        record = Span(
            next(self._ids), name, time.perf_counter(), 0.0,
            parent.id if parent is not None else None, request,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path: Path) -> None:
        payload = {
            "spans": [asdict(span) for span in self.spans],
            "counts": dict(self.counts),
        }
        Path(path).write_text(json.dumps(payload))

    @staticmethod
    def load(path: Path) -> Tuple[List[Span], Dict[str, int]]:
        payload = json.loads(Path(path).read_text())
        return [Span(**span) for span in payload["spans"]], payload["counts"]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children of one span may overlap each other (threads); their union
    is subtracted, clipped to the parent's interval.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = (span.end - span.start) - covered
    return result


def per_unit_self(spans: Sequence[Span], name: str) -> List[float]:
    """Self time of the spans named ``name``, summed per request when the
    spans carry a request id, else one value per span."""
    own = self_times(spans)
    per_request: Dict[Any, float] = defaultdict(float)
    for span in spans:
        if span.name == name:
            key = span.request if span.request is not None else ("span", span.id)
            per_request[key] += own[span.id]
    return list(per_request.values())


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [span.end - span.start for span in spans if span.name == name]


@contextlib.contextmanager
def patched(patches: Sequence[Tuple[Any, str, Callable]]) -> Iterator[None]:
    """Set ``owner.attr = value`` for each patch; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _wrapped(tracer: Tracer, owner: Any, attr: str, name: str) -> Tuple[Any, str, Callable]:
    return owner, attr, tracer.wrap(getattr(owner, attr), name)


def server_patches(tracer: Tracer) -> List[Tuple[Any, str, Callable]]:
    """Wrappers around the service layers' calls inside the server.

    Each request's root span is the handler dispatch, tagged with the
    request id the benchmark sent in :data:`REQUEST_HEADER`; codec,
    registry, session and tensor spans nest under it.
    """
    from repro.core import tensor
    from repro.core.session import GameSession
    from repro.service import registry, server

    dispatch = server._Handler._dispatch

    @functools.wraps(dispatch)
    def traced_dispatch(handler: Any, method: str) -> None:
        with tracer.span("server.handler", handler.headers.get(REQUEST_HEADER)):
            dispatch(handler, method)

    sweep = tensor.TensorGame.sweep_profiles

    @functools.wraps(sweep)
    def traced_sweep(game: Any, *args: Any, **kwargs: Any) -> Any:
        name = (
            "tensor.sweep_eq"
            if kwargs.get("check_equilibria", True)
            else "tensor.sweep_social"
        )
        with tracer.span(name):
            return sweep(game, *args, **kwargs)

    # The registry binds its hash function as a keyword default at class
    # definition; swapping the default reaches every registry built later.
    hash_defaults = dict(registry.SessionRegistry.__init__.__kwdefaults__)
    hash_defaults["hash_fn"] = tracer.wrap(hash_defaults["hash_fn"], "codec.game_hash")
    return [
        (server._Handler, "_dispatch", traced_dispatch),
        _wrapped(tracer, server, "spec_from_wire", "codec.spec_from_wire"),
        _wrapped(tracer, server, "encode_result", "codec.encode_result"),
        (registry.SessionRegistry.__init__, "__kwdefaults__", hash_defaults),
        _wrapped(tracer, registry.SessionRegistry, "submit", "registry.submit"),
        _wrapped(tracer, GameSession, "evaluate", "session.evaluate"),
        _wrapped(tracer, GameSession, "best_response_dynamics", "session.dynamics"),
        (tensor.TensorGame, "sweep_profiles", traced_sweep),
    ]


def census_patches(
    tracer: Tracer, bucket_plans: List[Dict[str, Any]]
) -> List[Tuple[Any, str, Callable]]:
    """Wrappers around the queued census path's layers.

    ``bucket_plans`` collects :meth:`BatchSession.bucket_plan` after each
    traced ``evaluate_many`` (read outside the span, so the plan's own
    cost is not charged to the batch layer).
    """
    from repro.analysis import census
    from repro.core.session import BatchSession
    from repro.runtime import queue
    from repro.runtime.artifacts import ArtifactStore
    from repro.runtime.cache import ResultCache

    evaluate_many = BatchSession.evaluate_many

    @functools.wraps(evaluate_many)
    def traced_evaluate_many(batch: Any, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("batch.evaluate_many"):
            rows = evaluate_many(batch, *args, **kwargs)
        bucket_plans.append(batch.bucket_plan())
        return rows

    heartbeat = queue.WorkQueue.heartbeat

    @functools.wraps(heartbeat)
    def counted_heartbeat(work_queue: Any, *args: Any, **kwargs: Any) -> int:
        tracer.count("queue.heartbeats")
        return heartbeat(work_queue, *args, **kwargs)

    return [
        _wrapped(tracer, queue.WorkQueue, "fill", "queue.fill"),
        _wrapped(tracer, queue.WorkQueue, "claim", "queue.claim"),
        _wrapped(tracer, queue.WorkQueue, "mark_done", "queue.mark_done"),
        (queue.WorkQueue, "heartbeat", counted_heartbeat),
        _wrapped(tracer, queue, "run_units", "executor.run_units"),
        _wrapped(tracer, census, "batch_census_members", "census.runner"),
        _wrapped(tracer, census, "reduce_census_cell", "census.reduce"),
        (BatchSession, "evaluate_many", traced_evaluate_many),
        _wrapped(tracer, ResultCache, "put", "cache.put"),
        _wrapped(tracer, ArtifactStore, "write", "artifacts.write"),
    ]
