"""Equilibrium-as-a-service: the stdlib HTTP session server.

A :class:`ServiceServer` is a ``ThreadingHTTPServer`` holding one
:class:`~repro.service.registry.SessionRegistry` (the LRU of lowered
:class:`~repro.core.session.GameSession`\\ s) and one
:class:`~repro.service.metrics.ServiceMetrics`.  Each request runs on
its own thread — queries therefore execute on the GIL-free thread
backend by construction (the tensor kernels release the GIL) — and the
per-session lock discipline documented in :mod:`repro.service.registry`
makes concurrent clients share one lowering safely.

Endpoints (wire format in ``docs/SERVICE.md``)::

    GET  /health                      liveness + version + cache size
    GET  /metrics                     per-client counts, cache stats,
                                      latency histograms
    POST /v1/games                    submit a game spec -> {"hash": ...}
    POST /v1/games/<hash>/evaluate    a Query measure bundle -> values
    POST /v1/games/<hash>/dynamics    best-response dynamics -> profile
    POST /v1/batch/evaluate           many game specs x one bundle, routed
                                      through the structure-of-arrays
                                      batch engine; one result row per
                                      game with per-game error bodies

Evaluation errors map to structured bodies ``{"error": {"code", "message",
...}}`` whose codes mirror the differential fuzz harness's outcome tags
(``explosion`` / ``runtime-error`` / ``value-error`` / ``assertion``),
so :mod:`repro.service.client` can re-raise the *exact* exception the
in-process call would have raised — the property the HTTP-vs-in-process
parity suite pins down.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

from .._util import ExplosionError
from ..core.game import BayesianGame
from ..core.measures import DENOMINATORS, NUMERATORS
from ..core.session import BatchSession, Query, query
from .codec import (
    CodecError,
    decode_result,
    encode_result,
    spec_from_wire,
)
from .metrics import ServiceMetrics
from .registry import (
    DEFAULT_CAPACITY,
    HashCollisionError,
    SessionRegistry,
    UnknownGameError,
)

#: Default TCP port (`` repro`` on a phone keypad would be overkill).
DEFAULT_PORT = 8350

#: Largest request body the service reads; a longer declared
#: ``Content-Length`` is refused with 413 before any body byte is read.
MAX_BODY_BYTES = 64 << 20

_GAME_PATH = re.compile(r"^/v1/games/([0-9a-f]{64})/(evaluate|dynamics)$")


class RequestError(Exception):
    """A structured, client-visible failure."""

    def __init__(self, status: int, code: str, message: str, **data: Any) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.data = data

    def body(self) -> Dict[str, Any]:
        error: Dict[str, Any] = {"code": self.code, "message": str(self)}
        if self.data:
            error["data"] = self.data
        return {"error": error}


def check_query(item: Query, game: BayesianGame) -> None:
    """The parameter rules a query must meet before ``game`` evaluates it.

    Every POST path runs this one check, so a malformed parameter is the
    request's fault (400 ``bad-request``) on every endpoint, never an
    error inside the evaluation.  Measures it does not know are left to
    the session, which answers them with its own errors.
    """
    params = item.kwargs
    if item.measure == "dynamics":
        max_rounds = params.get("max_rounds", 10_000)
        if type(max_rounds) is not int or max_rounds < 1:  # bool is an int
            raise RequestError(
                400, "bad-request", f"max_rounds must be a positive int, "
                f"got {max_rounds!r}"
            )
        initial = params.get("initial")
        if initial is None:
            return
        spaces = [game.actions(i) for i in range(game.num_agents)]
        # Feasibility matters only at positive-probability types: the
        # dynamics never read an action at the others.
        valid = (
            isinstance(initial, tuple)
            and len(initial) == len(spaces)
            and all(
                isinstance(strategy, tuple)
                and len(strategy) == len(game.types(i))
                and all(action in spaces[i] for action in strategy)
                for i, strategy in enumerate(initial)
            )
            and all(
                initial[i][game.type_position(i, ti)]
                in game.feasible_actions(i, ti)
                for i in range(len(spaces))
                for ti in game.prior.positive_types(i)
            )
        )
        if not valid:
            raise RequestError(
                400, "bad-request", "initial must hold one tuple per agent "
                "with one action per type from that agent's action space, "
                "feasible at every positive-probability type"
            )
    elif item.measure == "state_optimum":
        profile = params.get("profile")
        if not (
            isinstance(profile, tuple)
            and len(profile) == game.num_agents
            and all(ti in game.types(i) for i, ti in enumerate(profile))
        ):
            raise RequestError(
                400, "bad-request", "profile must be a tuple holding one type "
                f"per agent from that agent's type space, got {profile!r}"
            )
    elif item.measure == "ratio":
        for name, labels in (("numerator", NUMERATORS), ("denominator", DENOMINATORS)):
            if params.get(name) not in labels:
                raise RequestError(
                    400, "bad-request",
                    f"{name} must be one of {labels}, got {params.get(name)!r}",
                )


def internal_error(error: BaseException) -> RequestError:
    """The 500 body of a failure nothing else maps."""
    return RequestError(500, "internal", repr(error))


def evaluation_error(error: BaseException) -> RequestError:
    """Map an exception raised *by the game evaluation* onto the wire.

    Codes equal the fuzz harness's outcome tags; ``ExplosionError``
    additionally carries its ``(what, size, limit)`` so the client can
    reconstruct the identical exception object.
    """
    if isinstance(error, ExplosionError):
        return RequestError(
            422, "explosion", str(error),
            what=error.what, size=error.size, limit=error.limit,
        )
    if isinstance(error, AssertionError):
        return RequestError(422, "assertion", str(error))
    if isinstance(error, ValueError):
        return RequestError(422, "value-error", str(error))
    if isinstance(error, RuntimeError):
        return RequestError(422, "runtime-error", str(error))
    raise error


class _Handler(BaseHTTPRequestHandler):
    """Routes requests; all state lives on ``self.server``."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:  # pragma: no cover - manual serving only
            super().log_message(format, *args)

    def _client_id(self) -> str:
        return self.headers.get("X-Repro-Client") or self.client_address[0]

    def _content_length(self) -> int:
        """The declared body length, validated before any byte is read.

        A refused length leaves the body unread on the socket, so the
        refusal also closes the connection.
        """
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = True
            raise RequestError(
                400, "bad-request",
                f"Content-Length must be a non-negative integer, got {declared!r}",
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise RequestError(
                413, "payload-too-large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        return length

    def _read_json(self) -> Any:
        length = self._content_length()
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise RequestError(400, "bad-request", "request body is empty")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(
                400, "bad-request", f"request body is not valid JSON: {error}"
            ) from None

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        endpoint, handler = self._route(method, self.path.split("?", 1)[0])
        status = 500
        try:
            status, payload = handler()
        except RequestError as error:
            status, payload = error.status, error.body()
        except BrokenPipeError:  # pragma: no cover - client went away
            return
        except Exception as error:  # defensive 500
            failure = internal_error(error)
            status, payload = failure.status, failure.body()
        try:
            self._send_json(status, payload)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        finally:
            self.server.metrics.observe(
                self._client_id(), endpoint, status,
                time.perf_counter() - started,
            )

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route(
        self, method: str, path: str
    ) -> Tuple[str, Callable[[], Tuple[int, Dict[str, Any]]]]:
        """The endpoint's metric name and the handler that answers it."""
        if method == "GET" and path == "/health":
            return "health", self._health
        if method == "GET" and path == "/metrics":
            return "metrics", lambda: (200, self.server.metrics.snapshot())
        if method == "POST" and path == "/v1/games":
            return "submit", self._submit
        if method == "POST" and path == "/v1/batch/evaluate":
            return "batch-evaluate", self._batch_evaluate
        match = _GAME_PATH.match(path)
        if match and method == "POST":
            key, action = match.groups()
            if action == "evaluate":
                return "evaluate", lambda: self._evaluate(key)
            return "dynamics", lambda: self._dynamics(key)

        def unknown() -> Tuple[int, Dict[str, Any]]:
            raise RequestError(
                404, "unknown-endpoint", f"no route for {method} {path}"
            )

        return "other", unknown

    def _health(self) -> Tuple[int, Dict[str, Any]]:
        from .. import __version__

        return 200, {
            "status": "ok",
            "version": __version__,
            "games": len(self.server.registry),
            "capacity": self.server.registry.capacity,
        }

    def _submit(self) -> Tuple[int, Dict[str, Any]]:
        payload = self._read_json()
        wire = payload.get("game") if isinstance(payload, dict) else None
        try:
            spec = spec_from_wire(wire if wire is not None else payload)
        except CodecError as error:
            raise RequestError(400, "bad-request", str(error)) from None
        try:
            entry, created = self.server.registry.submit(spec)
        except HashCollisionError as error:
            raise RequestError(409, "hash-collision", str(error)) from None
        body = {
            "hash": entry.game_hash,
            "created": created,
            "name": spec.name,
            "url": f"/v1/games/{entry.game_hash}",
        }
        return (201 if created else 200), body

    def _entry(self, key: str):
        try:
            return self.server.registry.get(key)
        except UnknownGameError:
            raise RequestError(
                404, "unknown-game", f"no game registered under hash {key}"
            ) from None

    @staticmethod
    def _parse_queries(items: Any) -> list:
        def params(item: Dict[str, Any]) -> Dict[str, Any]:
            value = item.get("params")
            if value is not None and not isinstance(value, dict):
                raise TypeError(f"query params must be an object, got {value!r}")
            return value or {}

        try:
            return [
                query(
                    str(item["measure"]),
                    **{
                        str(name): decode_result(value)
                        for name, value in params(item).items()
                    },
                )
                for item in items
            ]
        except (CodecError, KeyError, TypeError) as error:
            raise RequestError(
                400, "bad-request", f"malformed query bundle: {error!r}"
            ) from None

    def _answer(self, key: str, items: Any) -> List[Any]:
        """Parse → entry → check → evaluate: the one path that answers a
        query bundle against one registered game."""
        queries = self._parse_queries(items)
        entry = self._entry(key)
        for item in queries:
            check_query(item, entry.session.game)
        try:
            with entry.session.lock:
                return entry.session.evaluate(queries)
        except Exception as error:
            raise evaluation_error(error) from None

    def _evaluate(self, key: str) -> Tuple[int, Dict[str, Any]]:
        payload = self._read_json()
        if not isinstance(payload, dict) or "queries" not in payload:
            raise RequestError(
                400, "bad-request", 'evaluate body must be {"queries": [...]}'
            )
        values = self._answer(key, payload["queries"])
        return 200, {
            "hash": key,
            "values": [encode_result(value) for value in values],
        }

    def _dynamics(self, key: str) -> Tuple[int, Dict[str, Any]]:
        """``/evaluate`` of the one ``dynamics`` query the body holds."""
        payload = self._read_json()
        if not isinstance(payload, dict):
            raise RequestError(400, "bad-request", "dynamics body must be an object")
        params = {
            name: payload[name]
            for name in ("initial", "max_rounds")
            if name in payload
        }
        [fixed_point] = self._answer(key, [{"measure": "dynamics", "params": params}])
        return 200, {"hash": key, "fixed_point": encode_result(fixed_point)}

    def _batch_evaluate(self) -> Tuple[int, Dict[str, Any]]:
        """Evaluate one measure bundle over many game specs in one call.

        Every spec lands in the registry LRU (warm single-game calls reuse
        the lowering, and vice versa), all registered games go through
        :meth:`BatchSession.evaluate_many` — structure-of-arrays kernels
        where the games lower, the looped path otherwise — and each game
        gets its own result row.  A game that fails (a malformed spec, a
        failed :func:`check_query`, or an evaluation error on any cell,
        mapped or not) contributes a structured error body in its row;
        the other rows are unaffected and the call as a whole still
        answers 200.
        """
        payload = self._read_json()
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("games"), list)
            or "queries" not in payload
        ):
            raise RequestError(
                400, "bad-request",
                'batch body must be {"games": [...], "queries": [...]}',
            )
        queries = self._parse_queries(payload["queries"])
        rows: list = [None] * len(payload["games"])
        entries = []
        positions = []
        for position, wire in enumerate(payload["games"]):
            try:
                spec = spec_from_wire(
                    wire.get("game", wire) if isinstance(wire, dict) else wire
                )
                entry, _ = self.server.registry.submit(spec)
            except CodecError as error:
                failure = RequestError(400, "bad-request", str(error))
                rows[position] = {"status": 400, **failure.body()}
            except HashCollisionError as error:
                failure = RequestError(409, "hash-collision", str(error))
                rows[position] = {"status": 409, **failure.body()}
            else:
                try:
                    for item in queries:
                        check_query(item, entry.session.game)
                except RequestError as failure:
                    rows[position] = {
                        "hash": entry.game_hash,
                        "status": failure.status,
                        **failure.body(),
                    }
                    continue
                entries.append(entry)
                positions.append(position)
        if entries:
            batch = BatchSession.from_sessions(
                [entry.session for entry in entries]
            )
            tables = batch.evaluate_many(queries, on_error="capture")
            for entry, position, values in zip(entries, positions, tables):
                failed = next(
                    (cell for cell in values if isinstance(cell, Exception)),
                    None,
                )
                if failed is not None:
                    try:
                        failure = evaluation_error(failed)
                    except Exception as error:  # unmapped: this game's 500
                        failure = internal_error(error)
                    rows[position] = {
                        "hash": entry.game_hash,
                        "status": failure.status,
                        **failure.body(),
                    }
                else:
                    rows[position] = {
                        "hash": entry.game_hash,
                        "values": [encode_result(value) for value in values],
                    }
        return 200, {"count": len(rows), "results": rows}


class ServiceServer(ThreadingHTTPServer):
    """The long-lived session server (one registry, one metrics sink)."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        *,
        capacity: int = DEFAULT_CAPACITY,
        session_config: Optional[Dict[str, Any]] = None,
        registry: Optional[SessionRegistry] = None,
        metrics: Optional[ServiceMetrics] = None,
        verbose: bool = False,
    ) -> None:
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        if registry is None:
            registry = SessionRegistry(
                capacity, session_config=session_config, metrics=self.metrics
            )
        self.registry = registry
        self.verbose = verbose
        super().__init__(address, _Handler)

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"


def start_local_server(**config: Any) -> Tuple[ServiceServer, threading.Thread]:
    """A server on an ephemeral localhost port, serving on a daemon thread.

    The test-suite / benchmark / example entry point: returns the bound
    server (``server.port`` is the chosen port) and its thread.  Callers
    stop it with ``server.shutdown(); server.server_close()``.
    """
    server = ServiceServer(("127.0.0.1", 0), **config)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},  # so shutdown() returns promptly
        name="repro-service",
        daemon=True,
    )
    thread.start()
    return server, thread
