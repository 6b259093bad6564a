"""The in-process workloads: ``census-queue`` and ``lazy-targeted``.

Run as a script, this module is the set-up probe those workloads time:
``python perfbench/perf_local.py <workload> <scratch-dir>`` imports the
program, makes the workload's system ready (the queue and result cache
exist, or the session has lowered its game) and prints ``ready``.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import perf_inputs
from perf_stats import OpCounter, median, nearest_rank, peak_rss_self_mb
from perf_trace import Tracer, census_patches, durations, patched

#: Set-up probes per run; ``setup_s`` is their median.  A probe takes
#: a fraction of a second, so five cost little and steady the median.
SETUP_REPEATS = 5

#: Hard limit on one set-up probe.
SETUP_TIMEOUT_S = 120.0

#: Census members per queued sweep (16 per claim: 8 claims).  Short
#: sweeps give each run many to choose its best from.
CENSUS_MEMBERS = 128

#: Lazy stream: queries per fresh session and distinct blocks touched.
LAZY_QUERIES = 800
LAZY_HOT_TYPES = 16

#: Stream positions answered again by the reference engine per run.
LAZY_ORACLE_SAMPLE = 24


def setup_seconds(root: Path, workload: str, scratch: Path) -> float:
    """Median seconds from launching a fresh interpreter until the
    workload's system reports ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    times = []
    for attempt in range(SETUP_REPEATS):
        directory = scratch / f"setup-{attempt}"
        directory.mkdir()
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(Path(__file__)), workload, str(directory)],
            cwd=root, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            line = process.stdout.readline()
            ready = time.perf_counter()
            output, _ = process.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if line.strip() != "ready" or process.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line}{output}")
        times.append(ready - started)
    return median(times)


def _make_ready(workload: str, directory: Path) -> None:
    if workload == "census-queue":
        from repro.runtime import ResultCache, WorkQueue

        WorkQueue(directory / "queue.db").initialize()
        ResultCache(root=directory / "cache")
    elif workload == "lazy-targeted":
        from repro.core.session import GameSession

        if GameSession(perf_inputs.congestion_game()).lazy_lowered() is None:
            raise RuntimeError("the congestion game did not lower lazily")
    else:
        raise ValueError(f"no set-up probe for {workload!r}")


# ----------------------------------------------------------------------
# census-queue
# ----------------------------------------------------------------------

def _cells_json(sweep_runs) -> str:
    from repro.runtime import cell_to_dict

    return json.dumps(
        [cell_to_dict(cell) for run in sweep_runs for cell in run.cells],
        sort_keys=True,
    )


def census_episode(sweep, scratch: Path, tracer: Tracer = None) -> Dict[str, Any]:
    """One whole queued sweep in a fresh directory: fill, one serial
    worker with a fresh result cache, collect, write the artifacts."""
    from repro.analysis.census import render_census_table
    from repro.runtime import ArtifactStore, ResultCache, collect_queue, fill_queue, run_worker

    directory = Path(tempfile.mkdtemp(dir=scratch))
    started = time.perf_counter()
    work_queue, _, _ = fill_queue([sweep], directory / "queue.db")
    stats = run_worker(
        work_queue, cache=ResultCache(root=directory / "cache"),
        owner="perfbench", backend="serial",
    )
    with tracer.span("queue.collect") if tracer is not None else contextlib.nullcontext():
        sweep_runs, _, meta = collect_queue([sweep], work_queue)
    cells = [cell for run in sweep_runs for cell in run.cells]
    ArtifactStore(root=directory / "results").write(
        sweep.sweep_id, cells, meta=meta,
        extra_markdown=render_census_table(cells),
    )
    seconds = time.perf_counter() - started
    return {
        "seconds": seconds,
        "cells": _cells_json(sweep_runs),
        "claims": stats.claims,
        "done": stats.done,
    }


def census_oracle(sweep) -> str:
    """The same sweep run locally (``run_sweep``, serial, no cache)."""
    from repro.runtime import run_sweep

    sweep_run, _ = run_sweep(sweep, jobs=1, backend="serial")
    return _cells_json([sweep_run])


def _check_episode(episode: Dict[str, Any], expected: str, ops: OpCounter) -> None:
    if episode["cells"] != expected:
        raise RuntimeError("queued census cells differ from the local run_sweep")
    for _ in range(episode["done"]):
        ops.record(True)
    for _ in range(CENSUS_MEMBERS - episode["done"]):
        ops.record(False, "member not done")


def census_queue(root: Path, seed: int, seconds: float, scratch: Path) -> Dict[str, Any]:
    setup_s = setup_seconds(root, "census-queue", scratch)
    sweep = perf_inputs.census_sweep(seed, CENSUS_MEMBERS)
    expected = census_oracle(sweep)
    ops = OpCounter()
    # One episode before the clock: imports and first-call set-up finish.
    first = census_episode(sweep, scratch)
    _check_episode(first, expected, OpCounter())
    episodes = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        episode = census_episode(sweep, scratch)
        _check_episode(episode, expected, ops)
        episodes.append(episode)
    times = [episode["seconds"] for episode in episodes]
    # Best episode: the machine is shared, and the least-disturbed
    # episode is what repeats from run to run.
    best = min(times)
    return {
        "ops": ops,
        "metrics": {
            "setup_s": setup_s,
            "latency_ms": 1e3 * best,
            "throughput_per_s": CENSUS_MEMBERS / best,
            "peak_rss_mb": peak_rss_self_mb(),
        },
        "detail": {
            "members_per_s": CENSUS_MEMBERS * len(times) / sum(times),
            "best_sweep_members_per_s": CENSUS_MEMBERS / best,
            "sweep_p50_ms": 1e3 * median(times),
            "best_sweep_ms": 1e3 * best,
            "members_per_sweep": CENSUS_MEMBERS,
            "sweeps": len(times),
        },
        "repeat": {"queue.claims": sorted({first["claims"], *(e["claims"] for e in episodes)})},
    }


def census_trace(seed: int, scratch: Path) -> Dict[str, Any]:
    sweep = perf_inputs.census_sweep(seed, CENSUS_MEMBERS)
    expected = census_oracle(sweep)
    ops = OpCounter()
    _check_episode(census_episode(sweep, scratch), expected, OpCounter())  # warm-up
    plain = census_episode(sweep, scratch)
    _check_episode(plain, expected, ops)
    tracer = Tracer()
    plans: List[Dict[str, Any]] = []
    with patched(census_patches(tracer, plans)):
        traced = census_episode(sweep, scratch, tracer)
    _check_episode(traced, expected, ops)

    spans = tracer.spans
    runner = {s.parent: s.end - s.start for s in spans if s.name == "census.runner"}
    overhead = [
        (s.end - s.start) - runner.get(s.id, 0.0)
        for s in spans if s.name == "executor.run_units"
    ]
    buckets = sum(len(plan["buckets"]) for plan in plans)
    lanes = sum(sum(plan["buckets"]) for plan in plans)
    mark_done = durations(spans, "queue.mark_done")
    metrics = {
        "batch.evaluate_many_ms": 1e3 * median(durations(spans, "batch.evaluate_many")),
        "batch.buckets": buckets,
        "batch.lanes_per_bucket": lanes / buckets if buckets else 0.0,
        "batch.loop_fallback_games": sum(plan["fallback"] for plan in plans),
        "census.runner_ms": 1e3 * median(durations(spans, "census.runner")),
        "census.reduce_ms": 1e3 * median(durations(spans, "census.reduce")),
        "executor.overhead_ms": 1e3 * median(overhead),
        "queue.fill_ms": 1e3 * median(durations(spans, "queue.fill")),
        "queue.claim_ms": 1e3 * median(durations(spans, "queue.claim")),
        "queue.mark_done_ms": 1e3 * median(mark_done),
        "queue.collect_ms": 1e3 * median(durations(spans, "queue.collect")),
        "queue.claims": traced["claims"],
        "queue.heartbeats": tracer.counts["queue.heartbeats"],
        "cache.put_ms": 1e3 * median(durations(spans, "cache.put")),
        "artifacts.write_ms": 1e3 * median(durations(spans, "artifacts.write")),
        "trace.overhead_frac.census-queue": traced["seconds"] / plain["seconds"] - 1.0,
    }
    shares = {
        "census-queue mark_done share of the sweep": sum(mark_done) / traced["seconds"],
        "census-queue runner share of the sweep": sum(durations(spans, "census.runner"))
        / traced["seconds"],
    }
    repeat = {"queue.claims": (plain["claims"], traced["claims"])}
    return {"metrics": metrics, "shares": shares, "repeat": repeat, "ops": ops}


# ----------------------------------------------------------------------
# lazy-targeted
# ----------------------------------------------------------------------

def lazy_episode(stream: List[Tuple[int, Tuple]], classify: bool = False) -> Dict[str, Any]:
    """A fresh session on a fresh game (lowered before the clock), then
    the stream, timing each query.  With ``classify`` (the traced run),
    the block cache is read after every query to tell misses from hits."""
    from repro.core.session import GameSession

    session = GameSession(perf_inputs.congestion_game())
    lazy = session.lazy_lowered()
    if lazy is None:
        raise RuntimeError("the congestion game did not lower lazily")
    answers = []
    latencies = []
    missed = []
    misses = lazy.cache_stats()["misses"]
    started = time.perf_counter()
    for ti, profile in stream:
        began = time.perf_counter()
        answers.append(session.interim_best_response(0, ti, profile))
        latencies.append(time.perf_counter() - began)
        if classify:
            now_misses = lazy.cache_stats()["misses"]
            missed.append(now_misses != misses)
            misses = now_misses
    seconds = time.perf_counter() - started
    return {
        "seconds": seconds,
        "answers": answers,
        "latencies": latencies,
        "missed": missed,
        "stats": lazy.cache_stats(),
    }


def lazy_oracle(seed: int, stream: List[Tuple[int, Tuple]]) -> Dict[int, Any]:
    """Reference-engine answers for a seeded sample of stream positions."""
    import numpy as np

    from repro.core import engine_override
    from repro.core.equilibrium import interim_best_response

    game = perf_inputs.congestion_game()
    rng = np.random.default_rng([int(seed), 4])
    positions = sorted(
        int(p) for p in rng.choice(len(stream), size=LAZY_ORACLE_SAMPLE, replace=False)
    )
    with engine_override("reference"):
        return {
            position: interim_best_response(game, 0, *stream[position])
            for position in positions
        }


def _check_lazy(episode: Dict[str, Any], expected: Dict[int, Any], ops: OpCounter) -> None:
    for position, answer in expected.items():
        if episode["answers"][position] != answer:
            raise RuntimeError(
                f"lazy answer at stream position {position} differs from the reference"
            )
    for _ in episode["answers"]:
        ops.record(True)


def lazy_targeted(root: Path, seed: int, seconds: float, scratch: Path) -> Dict[str, Any]:
    setup_s = setup_seconds(root, "lazy-targeted", scratch)
    stream = perf_inputs.lazy_stream(seed, LAZY_QUERIES, LAZY_HOT_TYPES)
    expected = lazy_oracle(seed, stream)
    ops = OpCounter()
    first = lazy_episode(stream)
    _check_lazy(first, expected, OpCounter())
    episodes = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        episode = lazy_episode(stream)
        if episode["answers"] != first["answers"]:
            raise RuntimeError("a fresh session answered the same stream differently")
        _check_lazy(episode, expected, ops)
        episodes.append(episode)
    latencies = [value for episode in episodes for value in episode["latencies"]]
    # Best session: the machine is shared, and the least-disturbed
    # session is what repeats from run to run.
    best_p50 = min(nearest_rank(episode["latencies"], 50) for episode in episodes)
    best_seconds = min(episode["seconds"] for episode in episodes)
    total = sum(episode["seconds"] for episode in episodes)
    return {
        "ops": ops,
        "metrics": {
            "setup_s": setup_s,
            "latency_ms": 1e3 * best_p50,
            "throughput_per_s": LAZY_QUERIES / best_seconds,
            "peak_rss_mb": peak_rss_self_mb(),
        },
        "detail": {
            "queries_per_s": LAZY_QUERIES * len(episodes) / total,
            "best_session_queries_per_s": LAZY_QUERIES / best_seconds,
            "query_p50_ms": 1e3 * nearest_rank(latencies, 50),
            "best_session_query_p50_ms": 1e3 * best_p50,
            "query_p99_ms": 1e3 * nearest_rank(latencies, 99),
            "sessions": len(episodes),
            "queries_per_session": LAZY_QUERIES,
        },
        "repeat": {
            "lazy.block_misses": sorted(
                {first["stats"]["misses"], *(e["stats"]["misses"] for e in episodes)}
            )
        },
    }


def lazy_trace(seed: int) -> Dict[str, Any]:
    """The stream on a fresh session, timed per query from this process
    (the lazy tier is called directly, so no wrapper is needed)."""
    stream = perf_inputs.lazy_stream(seed, LAZY_QUERIES, LAZY_HOT_TYPES)
    expected = lazy_oracle(seed, stream)
    ops = OpCounter()
    lazy_episode(stream)  # warm-up
    plain = lazy_episode(stream)
    traced = lazy_episode(stream, classify=True)
    for episode in (plain, traced):
        _check_lazy(episode, expected, ops)
    stats = traced["stats"]
    miss_times = [t for t, m in zip(traced["latencies"], traced["missed"]) if m]
    hit_times = [t for t, m in zip(traced["latencies"], traced["missed"]) if not m]
    lookups = stats["hits"] + stats["misses"]
    metrics = {
        "lazy.block_misses": stats["misses"],
        "lazy.block_hits": stats["hits"],
        "lazy.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
        "lazy.miss_query_ms": 1e3 * median(miss_times),
        "lazy.hit_query_us": 1e6 * median(hit_times),
        "lazy.resident_cells": stats["resident_cells"],
        "trace.overhead_frac.lazy-targeted": traced["seconds"] / plain["seconds"] - 1.0,
    }
    repeat = {"lazy.block_misses": (plain["stats"]["misses"], stats["misses"])}
    return {"metrics": metrics, "shares": {}, "repeat": repeat, "ops": ops}


if __name__ == "__main__":
    _make_ready(sys.argv[1], Path(sys.argv[2]))
    print("ready", flush=True)
