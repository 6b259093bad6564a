"""The service workloads: ``service-warm`` and ``service-cold``.

Both drive ``python -m repro serve --port 0`` in a subprocess over at
most two keep-alive HTTP connections from this one process.  Request
bodies are encoded before the clock starts, so the client only sends
bytes.  Every answer is checked against an in-process
:class:`~repro.core.session.GameSession` on the same spec.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import perf_inputs
from perf_stats import (
    OpCounter,
    OpenLoopSchedule,
    finite_ms,
    median,
    nearest_rank,
    peak_rss_of_mb,
    sleep_until,
    tail_percentile,
    thread_count,
    window_medians,
    window_rates,
)
from perf_trace import REQUEST_HEADER, Tracer, durations, per_unit_self

#: Hard limit on server start: process up, port printed, /health answers.
STARTUP_TIMEOUT_S = 60.0

#: Limit on a clean SIGTERM shutdown before the server is killed.
SHUTDOWN_TIMEOUT_S = 30.0

#: Per-request socket timeout; a request past it counts as failed.
REQUEST_TIMEOUT_S = 120.0

#: Registry capacity.  Above the two in-flight games of the cold
#: workload (so no game is evicted between its own requests) and below
#: its stream of distinct games (so evictions occur).
CAPACITY = 4

#: Client connections (the box has two cores).
CONNECTIONS = 2

#: Server starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Open-loop arrival rate for warm evaluates, req/s: below the parent's
#: two-connection closed-loop ceiling (~45 req/s with the 44 ms stall).
WARM_RATE = 20.0

#: Share of the run spent open loop on service-warm; the rest is the
#: closed-loop throughput phase.
WARM_OPEN_SHARE = 0.6

#: Distinct fresh games per service-cold run; the stream cycles through
#: them, and with more games than CAPACITY every submit misses.
COLD_GAMES = 6

#: Open-loop requests per window; ``latency_ms`` on service-warm is the
#: lowest window median.
WARM_WINDOW_REQUESTS = 20

#: Completions per closed-loop window (about a second); the highest
#: window rate is reported.
WARM_WINDOW_COMPLETIONS = 40

#: Fixed replay sizes of the traced mode.
TRACE_WARM_REQUESTS = 100
TRACE_COLD_GAMES = 6


class ServerProcess:
    """One server subprocess with a readiness probe and checked shutdown.

    ``spans`` selects the traced launcher (``perf_server.py``), which
    writes its spans to that path on exit; otherwise the plain
    ``python -m repro serve`` command runs.
    """

    def __init__(self, root: Path, spans: Optional[Path] = None) -> None:
        self.root = root
        self.spans = spans
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.output: List[str] = []
        self._reader: Optional[threading.Thread] = None

    def command(self) -> List[str]:
        serve = ["serve", "--port", "0", "--capacity", str(CAPACITY)]
        if self.spans is None:
            return [sys.executable, "-m", "repro", *serve]
        launcher = str(Path(__file__).with_name("perf_server.py"))
        return [sys.executable, launcher, "--spans", str(self.spans), *serve]

    def _read(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next_line(self, deadline: float) -> Optional[str]:
        try:
            line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise RuntimeError("server did not start in time") from None
        if line is not None:
            self.output.append(line.rstrip())
        return line

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        paths = [str(self.root / "src"), str(Path(__file__).parent)]
        env["PYTHONPATH"] = os.pathsep.join(
            paths + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.process = subprocess.Popen(
            self.command(), cwd=self.root, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        try:
            while True:
                line = self._next_line(deadline)
                if line is None:
                    raise RuntimeError("server exited during start-up")
                if line.startswith("serving on "):
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
                    break
            while not self._healthy():
                if time.monotonic() > deadline:
                    raise RuntimeError("server never answered /health")
                time.sleep(0.02)
        except BaseException as error:
            self.stop(check=False)
            raise RuntimeError(
                f"{error}; server output: {self.output[-5:]}"
            ) from None
        return self

    def _healthy(self) -> bool:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            connection.request("GET", "/health")
            return connection.getresponse().status == 200
        except OSError:
            return False
        finally:
            connection.close()

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def stop(self, check: bool = True) -> None:
        """SIGTERM, wait, and (with ``check``) demand exit code 0."""
        process = self.process
        if process is None:
            return
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=SHUTDOWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                if check:
                    raise RuntimeError("server ignored SIGTERM and was killed")
        if self._reader is not None:
            self._reader.join(timeout=SHUTDOWN_TIMEOUT_S)
        if check and process.returncode != 0:
            raise RuntimeError(
                f"server exited with code {process.returncode}: {self.output[-5:]}"
            )

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop(check=exc_info[0] is None)


class Connection:
    """One keep-alive connection that sends pre-encoded bodies and
    counts request and response body bytes."""

    def __init__(self, port: int, client: str) -> None:
        self.http = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )
        self.client = client
        self.request_bytes = 0
        self.response_bytes = 0

    def call(
        self, method: str, path: str, body: Optional[bytes] = None,
        request_id: Optional[str] = None,
    ) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json", "X-Repro-Client": self.client}
        if request_id is not None:
            headers[REQUEST_HEADER] = request_id
        self.http.request(method, path, body=body, headers=headers)
        response = self.http.getresponse()
        payload = response.read()
        self.request_bytes += len(body or b"")
        self.response_bytes += len(payload)
        return response.status, payload

    def close(self) -> None:
        self.http.close()


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


class Oracle:
    """In-process answers for one game, encoded as the server encodes them."""

    def __init__(self, session: Any, values: List[Any], fixed_points: List[Any]) -> None:
        from repro.service.codec import encode_result

        self.session = session
        self.values = _canonical([encode_result(value) for value in values])
        self.fixed_points = [_canonical(encode_result(point)) for point in fixed_points]

    @classmethod
    def of(cls, spec: Any, initials: List[Tuple] = ()) -> "Oracle":
        from repro.core.session import GameSession

        session = GameSession(spec.build())
        values = session.evaluate(perf_inputs.bundle_queries())
        fixed_points = [
            session.best_response_dynamics(initial=initial) for initial in initials
        ]
        return cls(session, values, fixed_points)

    def check_values(self, payload: bytes) -> bool:
        return _canonical(json.loads(payload)["values"]) == self.values

    def check_fixed_point(self, index: int, payload: bytes) -> bool:
        return _canonical(json.loads(payload)["fixed_point"]) == self.fixed_points[index]


def check_error_parity(server: ServerProcess, game: perf_inputs.ServiceGame, oracle: Oracle) -> None:
    """A failing query must fail identically over HTTP and in process."""
    from repro.core.session import query
    from repro.service import ServiceClient

    bad = [query("eq_c", kind="median")]
    try:
        oracle.session.evaluate(bad)
    except ValueError as error:
        expected: Any = (type(error), str(error))
    else:
        raise RuntimeError("the error-parity query unexpectedly succeeded")
    with ServiceClient("127.0.0.1", server.port, client_id="parity") as client:
        try:
            client.evaluate(game.hash, bad)
        except Exception as error:
            remote: Any = (type(error), str(error))
        else:
            remote = None
    if remote != expected:
        raise RuntimeError(f"error payload mismatch: {remote!r} vs {expected!r}")


def start_ready(root: Path, resident: perf_inputs.ServiceGame, oracle: Oracle,
                evaluate_body: bytes, spans: Optional[Path] = None) -> Tuple[ServerProcess, float]:
    """Start a server and make it ready: /health answers, the resident
    game is submitted and its bundle evaluated once (checked).  Returns
    the server and the seconds that took."""
    started = time.perf_counter()
    server = ServerProcess(root, spans).start()
    try:
        connection = Connection(server.port, "setup")
        try:
            status, body = connection.call("POST", "/v1/games", resident.submit)
            if status != 201 or json.loads(body)["hash"] != resident.hash:
                raise RuntimeError(f"resident submit answered {status}: {body[:200]!r}")
            status, body = connection.call(
                "POST", f"/v1/games/{resident.hash}/evaluate", evaluate_body
            )
            if status != 200 or not oracle.check_values(body):
                raise RuntimeError("resident evaluate differs from the in-process oracle")
        finally:
            connection.close()
    except BaseException:
        server.stop(check=False)
        raise
    return server, time.perf_counter() - started


def setup_servers(root: Path, resident, oracle, evaluate_body) -> Tuple[ServerProcess, float]:
    """``SETUP_REPEATS`` starts; all but the last are shut down again."""
    times = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server, seconds = start_ready(root, resident, oracle, evaluate_body)
        times.append(seconds)
    return server, median(times)


# ----------------------------------------------------------------------
# service-warm
# ----------------------------------------------------------------------

def open_loop(port: int, path: str, body: bytes, rate: float, count: int,
              expected: bytes, ops: OpCounter):
    """``count`` requests due at ``rate``/s over CONNECTIONS senders.

    Each response must equal ``expected`` byte for byte.  Returns the
    schedule (latencies from due time, generator lags) and the
    connections' byte counts.
    """
    schedule = OpenLoopSchedule(rate, count, time.perf_counter() + 0.05)
    connections = [Connection(port, f"open-{n}") for n in range(CONNECTIONS)]

    def sender(connection: Connection) -> None:
        while True:
            index = schedule.claim()
            if index is None:
                return
            sleep_until(schedule.due(index))
            sent = time.perf_counter()
            done = None
            try:
                status, payload = connection.call(
                    "POST", path, body, request_id=f"w-{index}"
                )
                finished = time.perf_counter()
                if status == 200 and payload == expected:
                    done = finished
                    ops.record(True)
                else:
                    ops.record(False, f"status {status}")
            except (OSError, http.client.HTTPException) as error:
                ops.record(False, repr(error))
            schedule.record(index, sent, done)

    _run_threads(sender, connections)
    return schedule, connections


def closed_loop(port: int, path: str, body: bytes, seconds: float,
                expected: bytes, ops: OpCounter) -> Tuple[List[float], float]:
    """Back-to-back requests on CONNECTIONS connections for ``seconds``;
    returns the completion times and the start time."""
    connections = [Connection(port, f"closed-{n}") for n in range(CONNECTIONS)]
    start = time.perf_counter()
    deadline = start + seconds
    completions: List[float] = []
    lock = threading.Lock()

    def worker(connection: Connection) -> None:
        while time.perf_counter() < deadline:
            try:
                status, payload = connection.call("POST", path, body)
                finished = time.perf_counter()
                ok = status == 200 and payload == expected
                ops.record(ok, "" if ok else f"status {status}")
            except (OSError, http.client.HTTPException) as error:
                ops.record(False, repr(error))
                continue
            if ok:
                with lock:
                    completions.append(finished)

    _run_threads(worker, connections)
    return completions, start


def _run_threads(target, connections: List[Connection]) -> None:
    threads = [
        threading.Thread(target=target, args=(c,), daemon=True) for c in connections
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for connection in connections:
            connection.close()


def _warm_reference(port: int, resident, evaluate_body: bytes) -> bytes:
    """The server's warm answer bytes (already checked at setup)."""
    connection = Connection(port, "reference")
    try:
        status, body = connection.call(
            "POST", f"/v1/games/{resident.hash}/evaluate", evaluate_body
        )
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"warm evaluate answered {status}")
    return body


def service_warm(root: Path, seed: int, seconds: float) -> Dict[str, Any]:
    base = perf_inputs.service_base()
    resident = perf_inputs.ServiceGame(base, seed, 0)
    oracle = Oracle.of(resident.spec)
    evaluate_body = perf_inputs.evaluate_body(perf_inputs.bundle_queries())
    path = f"/v1/games/{resident.hash}/evaluate"
    ops = OpCounter()

    server, setup_s = setup_servers(root, resident, oracle, evaluate_body)
    with server:
        check_error_parity(server, resident, oracle)
        expected = _warm_reference(server.port, resident, evaluate_body)
        if not oracle.check_values(expected):
            raise RuntimeError("warm evaluate differs from the in-process oracle")
        open_seconds = seconds * WARM_OPEN_SHARE
        count = max(1, int(WARM_RATE * open_seconds))
        schedule, _ = open_loop(
            server.port, path, evaluate_body, WARM_RATE, count, expected, ops
        )
        completions, closed_start = closed_loop(
            server.port, path, evaluate_body, seconds - open_seconds, expected, ops
        )
        rss = peak_rss_of_mb(server.pid)

    latencies = schedule.latencies
    # Best window: the machine is shared, and the least-disturbed window
    # is what repeats from run to run.
    best_p50 = min(window_medians(latencies, WARM_WINDOW_REQUESTS))
    rps = max(window_rates(completions, closed_start, WARM_WINDOW_COMPLETIONS))
    tail = tail_percentile(len(latencies))
    detail = {
        "evaluate_p50_ms": finite_ms(nearest_rank(latencies, 50), REQUEST_TIMEOUT_S),
        "evaluate_best_window_p50_ms": finite_ms(best_p50, REQUEST_TIMEOUT_S),
        "evaluate_rps": len(completions) / max(max(completions, default=0.0) - closed_start, 1e-9),
        "evaluate_best_window_rps": rps,
        "open_loop_rate": WARM_RATE,
        "open_loop_samples": len(latencies),
        "schedule_lag_p50_ms": 1e3 * nearest_rank(schedule.lags, 50),
    }
    if tail is not None:
        detail[f"evaluate_p{tail:g}_ms"] = finite_ms(
            nearest_rank(latencies, tail), REQUEST_TIMEOUT_S
        )
    return {
        "ops": ops,
        "metrics": {
            "setup_s": setup_s,
            "latency_ms": detail["evaluate_best_window_p50_ms"],
            "throughput_per_s": rps,
            "peak_rss_mb": rss,
        },
        "detail": detail,
    }


# ----------------------------------------------------------------------
# service-cold
# ----------------------------------------------------------------------

class ColdStream:
    """Closed-loop fresh games in rounds: each round, every connection
    answers one game (submit, bundle, dynamics restarts), and the next
    round starts when all have replied.

    Games are taken in order from a cycle over ``games``; a replayed
    game must answer byte for byte as it did first (and that first
    answer is checked against the oracle afterwards).
    """

    def __init__(self, games: List[perf_inputs.ServiceGame], evaluate_body: bytes) -> None:
        self.games = games
        self.evaluate_body = evaluate_body
        self.answers: Dict[int, List[bytes]] = {}
        #: Per round: the game latencies and the round's wall time.
        self.rounds: List[Tuple[List[float], float]] = []
        self.ops = OpCounter()
        self.request_bytes = 0
        self.response_bytes = 0
        self.mismatches: List[int] = []

    @property
    def latencies(self) -> List[float]:
        return [latency for round_, _ in self.rounds for latency in round_]

    def _answer(self, connection: Connection, index: int) -> Optional[List[bytes]]:
        game = self.games[index % len(self.games)]
        tag = f"c-{index}"
        status, body = connection.call("POST", "/v1/games", game.submit, f"{tag}-submit")
        if status not in (200, 201) or json.loads(body)["hash"] != game.hash:
            return None
        answers = []
        status, body = connection.call(
            "POST", f"/v1/games/{game.hash}/evaluate", self.evaluate_body, f"{tag}-evaluate"
        )
        if status != 200:
            return None
        answers.append(body)
        for restart, dynamics in enumerate(game.dynamics):
            status, body = connection.call(
                "POST", f"/v1/games/{game.hash}/dynamics", dynamics,
                f"{tag}-dynamics-{restart}",
            )
            if status != 200:
                return None
            answers.append(body)
        return answers

    def _one(self, connection: Connection, index: int, latencies: List[float]) -> None:
        began = time.perf_counter()
        try:
            answers = self._answer(connection, index)
        except (OSError, http.client.HTTPException) as error:
            answers = None
            self.ops.record(False, repr(error))
            connection.close()
        else:
            self.ops.record(answers is not None, f"game {index} refused")
        latencies[index % CONNECTIONS] = (
            math.inf if answers is None else time.perf_counter() - began
        )
        if answers is not None:
            slot = index % len(self.games)
            if self.answers.setdefault(slot, answers) != answers:
                self.mismatches.append(slot)

    def run(self, port: int, rounds: Optional[int] = None, seconds: float = 0.0) -> None:
        """Play rounds until ``rounds`` are done or ``seconds`` elapsed."""
        connections = [Connection(port, f"cold-{n}") for n in range(CONNECTIONS)]
        deadline = time.perf_counter() + seconds
        try:
            while (
                len(self.rounds) < rounds if rounds is not None
                else time.perf_counter() < deadline
            ):
                first = len(self.rounds) * CONNECTIONS
                latencies = [math.inf] * CONNECTIONS
                threads = [
                    threading.Thread(
                        target=self._one, args=(connection, first + n, latencies),
                        daemon=True,
                    )
                    for n, connection in enumerate(connections)
                ]
                began = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                self.rounds.append((latencies, time.perf_counter() - began))
        finally:
            for connection in connections:
                connection.close()
                self.request_bytes += connection.request_bytes
                self.response_bytes += connection.response_bytes

    def best_round(self) -> Tuple[float, float]:
        """``(latency, games per second)`` of the fastest round: the
        machine is shared, and the least-disturbed round is what repeats
        from run to run."""
        latencies, seconds = min(self.rounds, key=lambda entry: entry[1])
        return median(latencies), len(latencies) / seconds

    def check(self, oracles: List[Oracle]) -> None:
        if self.mismatches:
            raise RuntimeError(f"games {sorted(set(self.mismatches))} answered differently on replay")
        for slot, answers in self.answers.items():
            oracle = oracles[slot]
            if not oracle.check_values(answers[0]):
                raise RuntimeError(f"game {slot}: bundle differs from the in-process oracle")
            for restart, body in enumerate(answers[1:]):
                if not oracle.check_fixed_point(restart, body):
                    raise RuntimeError(
                        f"game {slot}: dynamics restart {restart} differs from the oracle"
                    )


def service_cold(root: Path, seed: int, seconds: float) -> Dict[str, Any]:
    base = perf_inputs.service_base()
    resident = perf_inputs.ServiceGame(base, seed, 0)
    resident_oracle = Oracle.of(resident.spec)
    evaluate_body = perf_inputs.evaluate_body(perf_inputs.bundle_queries())
    games = [perf_inputs.ServiceGame(base, seed, index) for index in range(1, COLD_GAMES + 1)]

    server, setup_s = setup_servers(root, resident, resident_oracle, evaluate_body)
    with server:
        check_error_parity(server, resident, resident_oracle)
        stream = ColdStream(games, evaluate_body)
        stream.run(server.port, seconds=seconds)
        rss = peak_rss_of_mb(server.pid)
    stream.check([Oracle.of(game.spec, game.initials) for game in games])

    answer_s, games_per_s = stream.best_round()
    latencies = stream.latencies
    return {
        "ops": stream.ops,
        "metrics": {
            "setup_s": setup_s,
            "latency_ms": finite_ms(answer_s, REQUEST_TIMEOUT_S),
            "throughput_per_s": games_per_s,
            "peak_rss_mb": rss,
        },
        "detail": {
            "answer_p50_ms": finite_ms(nearest_rank(latencies, 50), REQUEST_TIMEOUT_S),
            "best_round_answer_ms": finite_ms(answer_s, REQUEST_TIMEOUT_S),
            "games_per_s": len(latencies) / sum(seconds for _, seconds in stream.rounds),
            "best_round_games_per_s": games_per_s,
            "games_answered": len(latencies),
            "distinct_games": COLD_GAMES,
        },
    }


# ----------------------------------------------------------------------
# traced replay
# ----------------------------------------------------------------------

class ThreadSampler:
    """Peak thread count of a process, sampled from ``/proc``."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            count = thread_count(self.pid)
            if count is not None:
                self.peak = max(self.peak, count)
            self._stop.wait(0.02)

    def __enter__(self) -> "ThreadSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()


def _registry_counts(port: int) -> Dict[str, int]:
    connection = Connection(port, "metrics")
    try:
        status, body = connection.call("GET", "/metrics")
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(body)["cache"]


def _warm_replay(root: Path, resident, oracle, evaluate_body, spans: Optional[Path]):
    ops = OpCounter()
    server, _ = start_ready(root, resident, oracle, evaluate_body, spans)
    with server, ThreadSampler(server.pid) as threads:
        expected = _warm_reference(server.port, resident, evaluate_body)
        schedule, connections = open_loop(
            server.port, f"/v1/games/{resident.hash}/evaluate", evaluate_body,
            WARM_RATE, TRACE_WARM_REQUESTS, expected, ops,
        )
    return {
        "ops": ops,
        "schedule": schedule,
        "threads": threads.peak,
        "request_bytes": sum(c.request_bytes for c in connections),
        "response_bytes": sum(c.response_bytes for c in connections),
    }


def _cold_replay(root: Path, resident, oracle, evaluate_body, games, spans: Optional[Path]):
    server, _ = start_ready(root, resident, oracle, evaluate_body, spans)
    stream = ColdStream(games, evaluate_body)
    with server, ThreadSampler(server.pid) as threads:
        stream.run(server.port, rounds=len(games) // CONNECTIONS)
        counts = _registry_counts(server.port)
    return {"stream": stream, "counts": counts, "threads": threads.peak}


def tensor_phases(games: List[perf_inputs.ServiceGame], tracer: Tracer) -> List[Oracle]:
    """Time the tensor layer through a fresh session per game, in a fixed
    order: lowering, the social-cost sweep (``opt_p``), the equilibrium
    bundle, then the dynamics restarts.  The sessions double as the
    oracle for those games."""
    from repro.core.session import GameSession

    oracles = []
    for game in games:
        session = GameSession(game.spec.build())
        with tracer.span("tensor.lower"):
            lowered = session.lowered()
        tracer.count("tensor.profiles_swept", int(lowered.profile_count()))
        with tracer.span("tensor.sweep_social"):
            session.opt_p()
        with tracer.span("tensor.sweep_eq"):
            values = session.evaluate(perf_inputs.bundle_queries())
        with tracer.span("tensor.dynamics"):
            fixed_points = [
                session.best_response_dynamics(initial=initial) for initial in game.initials
            ]
        oracle = Oracle(session, values, fixed_points)
        oracles.append(oracle)
    return oracles


def service_trace(root: Path, seed: int, scratch: Path) -> Dict[str, Any]:
    """Replay fixed-size warm and cold streams untraced, then traced;
    return per-layer metrics, overheads, counts to compare, and ops."""
    base = perf_inputs.service_base()
    resident = perf_inputs.ServiceGame(base, seed, 0)
    oracle = Oracle.of(resident.spec)
    evaluate_body = perf_inputs.evaluate_body(perf_inputs.bundle_queries())
    games = [
        perf_inputs.ServiceGame(base, seed, index)
        for index in range(1, TRACE_COLD_GAMES + 1)
    ]
    ops = OpCounter()

    warm_plain = _warm_replay(root, resident, oracle, evaluate_body, None)
    warm_spans = scratch / "warm-spans.json"
    warm_traced = _warm_replay(root, resident, oracle, evaluate_body, warm_spans)
    cold_plain = _cold_replay(root, resident, oracle, evaluate_body, games, None)
    cold_spans = scratch / "cold-spans.json"
    cold_traced = _cold_replay(root, resident, oracle, evaluate_body, games, cold_spans)
    for replay in (warm_plain, warm_traced):
        ops.merge(replay["ops"])
    for replay in (cold_plain, cold_traced):
        ops.merge(replay["stream"].ops)

    tracer = Tracer()
    oracles = tensor_phases(games, tracer)
    for replay in (cold_plain, cold_traced):
        replay["stream"].check(oracles)

    warm, _ = Tracer.load(warm_spans)
    cold, _ = Tracer.load(cold_spans)
    client_p50 = nearest_rank(warm_traced["schedule"].latencies, 50)
    handler = [
        s.end - s.start for s in warm
        if s.name == "server.handler" and (s.request or "").startswith("w-")
    ]
    handler_p50 = nearest_rank(handler, 50)
    warm_eval = [s for s in warm if (s.request or "").startswith("w-")]
    cold_submit = [s for s in cold if (s.request or "").endswith("-submit")]
    counts = cold_traced["counts"]
    plain_p50 = nearest_rank(warm_plain["schedule"].latencies, 50)
    metrics = {
        "server.handler_p50_ms": 1e3 * handler_p50,
        "server.transport_p50_ms": 1e3 * (client_p50 - handler_p50),
        "server.request_bytes": warm_traced["request_bytes"] + cold_traced["stream"].request_bytes,
        "server.response_bytes": warm_traced["response_bytes"] + cold_traced["stream"].response_bytes,
        "server.threads_peak": max(warm_traced["threads"], cold_traced["threads"]),
        "codec.spec_from_wire_ms": 1e3 * median(per_unit_self(cold_submit, "codec.spec_from_wire")),
        "codec.game_hash_ms": 1e3 * median(per_unit_self(cold_submit, "codec.game_hash")),
        "codec.encode_result_ms": 1e3 * median(per_unit_self(warm_eval, "codec.encode_result")),
        "registry.submit_ms": 1e3 * median(per_unit_self(cold_submit, "registry.submit")),
        "registry.hits": counts["hits"],
        "registry.misses": counts["misses"],
        "registry.evictions": counts["evictions"],
        "session.evaluate_warm_us": 1e6 * median(per_unit_self(warm_eval, "session.evaluate")),
        "tensor.lower_ms": 1e3 * median(durations(tracer.spans, "tensor.lower")),
        "tensor.sweep_social_ms": 1e3 * median(durations(tracer.spans, "tensor.sweep_social")),
        "tensor.sweep_eq_ms": 1e3 * median(durations(tracer.spans, "tensor.sweep_eq")),
        "tensor.dynamics_ms": 1e3 * median(durations(tracer.spans, "tensor.dynamics")),
        "tensor.profiles_swept": tracer.counts["tensor.profiles_swept"],
        "loadgen.schedule_lag_p99_ms": 1e3 * nearest_rank(warm_plain["schedule"].lags, 99),
        "trace.overhead_frac.service-warm": client_p50 / plain_p50 - 1.0,
        "trace.overhead_frac.service-cold": (
            nearest_rank(cold_traced["stream"].latencies, 50)
            / nearest_rank(cold_plain["stream"].latencies, 50) - 1.0
        ),
    }
    answer_p50 = nearest_rank(cold_traced["stream"].latencies, 50)
    shares = {
        "service-warm transport share of evaluate_p50": metrics["server.transport_p50_ms"]
        / (1e3 * client_p50),
        "service-cold sweep_eq share of answer_p50": metrics["tensor.sweep_eq_ms"]
        / (1e3 * answer_p50),
    }
    repeat = {
        "registry.misses": (cold_plain["counts"]["misses"], counts["misses"]),
        "registry.evictions": (cold_plain["counts"]["evictions"], counts["evictions"]),
        "server.request_bytes": (
            warm_plain["request_bytes"] + cold_plain["stream"].request_bytes,
            metrics["server.request_bytes"],
        ),
        "server.response_bytes": (
            warm_plain["response_bytes"] + cold_plain["stream"].response_bytes,
            metrics["server.response_bytes"],
        ),
    }
    return {"metrics": metrics, "shares": shares, "repeat": repeat, "ops": ops}
