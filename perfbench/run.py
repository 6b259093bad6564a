"""The repository benchmark: one command, four workloads, two modes.

    python3 perfbench/run.py --workload service-warm --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it builds nothing; the program
is imported from ``src/``).  ``--trace 0`` measures the end-to-end
metrics of one workload; ``--trace 1`` replays fixed-size seeded inputs
of every workload untraced and then traced, and reports the per-layer
metrics and the tracing overhead of each workload.  Every answer is
checked against an in-process oracle; a mismatch fails the run.

The last line of standard output is the result object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The line before it is the run record: machine, commit, seed, run
length, workload-specific figures, and the counts that must repeat
exactly on a same-seed rerun.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict

#: ``census-queue`` runs and is traced but is not in ``BENCHMARK.json``:
#: its sweep time is dominated by sqlite file operations, whose latency
#: on a shared disk swings twofold between runs.
WORKLOADS = ("service-warm", "service-cold", "census-queue", "lazy-targeted")

#: End-to-end metrics every ``--trace 0`` run prints, with units.
END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics every ``--trace 1`` run prints, with units.
PER_LAYER = {
    "server.handler_p50_ms": "ms",
    "server.transport_p50_ms": "ms",
    "server.request_bytes": "B",
    "server.response_bytes": "B",
    "server.threads_peak": "count",
    "codec.spec_from_wire_ms": "ms",
    "codec.game_hash_ms": "ms",
    "codec.encode_result_ms": "ms",
    "registry.submit_ms": "ms",
    "registry.hits": "count",
    "registry.misses": "count",
    "registry.evictions": "count",
    "session.evaluate_warm_us": "us",
    "tensor.lower_ms": "ms",
    "tensor.sweep_social_ms": "ms",
    "tensor.sweep_eq_ms": "ms",
    "tensor.dynamics_ms": "ms",
    "tensor.profiles_swept": "count",
    "batch.evaluate_many_ms": "ms",
    "batch.buckets": "count",
    "batch.lanes_per_bucket": "count",
    "batch.loop_fallback_games": "count",
    "lazy.block_misses": "count",
    "lazy.block_hits": "count",
    "lazy.hit_ratio": "ratio",
    "lazy.miss_query_ms": "ms",
    "lazy.hit_query_us": "us",
    "lazy.resident_cells": "count",
    "census.runner_ms": "ms",
    "census.reduce_ms": "ms",
    "executor.overhead_ms": "ms",
    "queue.fill_ms": "ms",
    "queue.claim_ms": "ms",
    "queue.mark_done_ms": "ms",
    "queue.collect_ms": "ms",
    "queue.claims": "count",
    "queue.heartbeats": "count",
    "cache.put_ms": "ms",
    "artifacts.write_ms": "ms",
    "loadgen.schedule_lag_p99_ms": "ms",
    **{f"trace.overhead_frac.{workload}": "ratio" for workload in WORKLOADS},
}

ROOT = Path(__file__).resolve().parent.parent


def _stop_on_sigterm(signum: int, frame: Any) -> None:
    # Unwind through every ``finally``: servers stop, scratch is removed.
    raise SystemExit(128 + signum)


def measure(workload: str, seed: int, seconds: float, scratch: Path) -> Dict[str, Any]:
    import perf_local
    import perf_service

    if workload == "service-warm":
        return perf_service.service_warm(ROOT, seed, seconds)
    if workload == "service-cold":
        return perf_service.service_cold(ROOT, seed, seconds)
    if workload == "census-queue":
        return perf_local.census_queue(ROOT, seed, seconds, scratch)
    return perf_local.lazy_targeted(ROOT, seed, seconds, scratch)


def trace(seed: int, scratch: Path) -> Dict[str, Any]:
    """Every workload's fixed replay, untraced then traced."""
    import perf_local
    import perf_service
    from perf_stats import OpCounter

    parts = [
        perf_service.service_trace(ROOT, seed, scratch),
        perf_local.census_trace(seed, scratch),
        perf_local.lazy_trace(seed),
    ]
    ops = OpCounter()
    merged: Dict[str, Any] = {"metrics": {}, "shares": {}, "repeat": {}}
    for part in parts:
        ops.merge(part["ops"])
        for key in merged:
            merged[key].update(part[key])
    merged["ops"] = ops
    missing = set(PER_LAYER) - set(merged["metrics"])
    if missing:
        raise RuntimeError(f"traced run produced no value for {sorted(missing)}")
    return merged


def drifted_counts(repeat: Dict[str, Any]) -> Dict[str, Any]:
    """Counts whose observations within this run disagree."""
    return {name: values for name, values in repeat.items() if len(set(values)) > 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; run from "
            "the root of a full source checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _stop_on_sigterm)

    from perf_stats import git_sha, machine_info

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    started = time.perf_counter()
    try:
        result = trace(args.seed, scratch) if args.trace else measure(
            args.workload, args.seed, args.seconds, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still owns a scratch directory here

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    drift = drifted_counts(result.get("repeat", {}))
    ops = result["ops"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "git_sha": git_sha(ROOT),
        "machine": machine_info(),
        "detail": result.get("detail", {}),
        "shares": result.get("shares", {}),
        "repeat_counts": result.get("repeat", {}),
        "failed_frac": ops.failed_frac,
        "errors": ops.errors,
    }
    for name, values in drift.items():
        print(f"perfbench: count {name} differs within the run: {values}", file=sys.stderr)
    print(json.dumps({"record": record}))
    correct = not drift
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
