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
from typing import Any, Dict, Optional, Tuple

from .._util import ExplosionError
from ..core.session import BatchSession, query
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

    @staticmethod
    def _endpoint_name(method: str, path: str) -> str:
        if method == "GET" and path in ("/health", "/metrics"):
            return path[1:]
        if method == "POST" and path == "/v1/games":
            return "submit"
        if method == "POST" and path == "/v1/batch/evaluate":
            return "batch-evaluate"
        match = _GAME_PATH.match(path)
        if match and method == "POST":
            return match.group(2)
        return "other"

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        endpoint = self._endpoint_name(method, self.path.split("?", 1)[0])
        status = 500
        try:
            _, status, payload = self._route(method)
        except RequestError as error:
            status, payload = error.status, error.body()
        except BrokenPipeError:  # pragma: no cover - client went away
            return
        except Exception as error:  # pragma: no cover - defensive 500
            status = 500
            payload = {
                "error": {"code": "internal", "message": repr(error)}
            }
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
    def _route(self, method: str) -> Tuple[str, int, Dict[str, Any]]:
        path = self.path.split("?", 1)[0]
        if method == "GET" and path == "/health":
            return "health", 200, self._health()
        if method == "GET" and path == "/metrics":
            return "metrics", 200, self.server.metrics.snapshot()
        if method == "POST" and path == "/v1/games":
            return ("submit",) + self._submit()
        if method == "POST" and path == "/v1/batch/evaluate":
            return ("batch-evaluate",) + self._batch_evaluate()
        match = _GAME_PATH.match(path)
        if match and method == "POST":
            key, action = match.groups()
            if action == "evaluate":
                return ("evaluate",) + self._evaluate(key)
            return ("dynamics",) + self._dynamics(key)
        raise RequestError(
            404, "unknown-endpoint", f"no route for {method} {path}"
        )

    def _health(self) -> Dict[str, Any]:
        from .. import __version__

        return {
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

    def _evaluate(self, key: str) -> Tuple[int, Dict[str, Any]]:
        payload = self._read_json()
        if not isinstance(payload, dict) or "queries" not in payload:
            raise RequestError(
                400, "bad-request", 'evaluate body must be {"queries": [...]}'
            )
        queries = self._parse_queries(payload["queries"])
        entry = self._entry(key)
        try:
            with entry.session.lock:
                values = entry.session.evaluate(queries)
        except Exception as error:
            raise evaluation_error(error) from None
        return 200, {
            "hash": key,
            "values": [encode_result(value) for value in values],
        }

    def _batch_evaluate(self) -> Tuple[int, Dict[str, Any]]:
        """Evaluate one measure bundle over many game specs in one call.

        Every spec lands in the registry LRU (warm single-game calls reuse
        the lowering, and vice versa), all registered games go through
        :meth:`BatchSession.evaluate_many` — structure-of-arrays kernels
        where the games lower, the looped path otherwise — and each game
        gets its own result row.  A game that fails (a malformed spec, or
        an evaluation error on any cell) contributes a structured error
        body in its row; the other rows are unaffected and the call as a
        whole still answers 200.
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
                    failure = evaluation_error(failed)
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

    def _dynamics(self, key: str) -> Tuple[int, Dict[str, Any]]:
        payload = self._read_json()
        if not isinstance(payload, dict):
            raise RequestError(400, "bad-request", "dynamics body must be an object")
        try:
            initial = (
                decode_result(payload["initial"])
                if payload.get("initial") is not None
                else None
            )
        except CodecError as error:
            raise RequestError(
                400, "bad-request", f"malformed initial profile: {error!r}"
            ) from None
        max_rounds = payload.get("max_rounds", 10_000)
        if type(max_rounds) is not int or max_rounds < 1:  # bool is an int
            raise RequestError(
                400, "bad-request", f"max_rounds must be a positive int, "
                f"got {max_rounds!r}"
            )
        entry = self._entry(key)
        if initial is not None:
            game = entry.session.game
            spaces = [game.actions(i) for i in range(game.num_agents)]
            valid = (
                isinstance(initial, tuple)
                and len(initial) == len(spaces)
                and all(
                    isinstance(strategy, tuple)
                    and len(strategy) == len(game.types(i))
                    and all(action in spaces[i] for action in strategy)
                    for i, strategy in enumerate(initial)
                )
            )
            if not valid:
                raise RequestError(
                    400, "bad-request", "initial must hold one tuple per agent "
                    "with one action per type from that agent's action space"
                )
        try:
            with entry.session.lock:
                fixed_point = entry.session.best_response_dynamics(
                    initial=initial, max_rounds=max_rounds
                )
        except Exception as error:
            raise evaluation_error(error) from None
        return 200, {"hash": key, "fixed_point": encode_result(fixed_point)}


class ServiceServer(ThreadingHTTPServer):
    """The long-lived session server (one registry, one metrics sink)."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        *,
        capacity: int = DEFAULT_CAPACITY,
        engine: Optional[str] = None,
        session_config: Optional[Dict[str, Any]] = None,
        registry: Optional[SessionRegistry] = None,
        metrics: Optional[ServiceMetrics] = None,
        verbose: bool = False,
    ) -> None:
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        if registry is None:
            config = dict(session_config or {})
            if engine is not None:
                config["engine"] = engine
            registry = SessionRegistry(
                capacity, session_config=config, metrics=self.metrics
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
        target=server.serve_forever, name="repro-service", daemon=True
    )
    thread.start()
    return server, thread
