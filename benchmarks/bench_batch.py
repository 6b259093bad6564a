"""Batch engine benchmark: one SoA kernel sweep over a 1000-game
population vs the looped per-game path, with bit-identical rows.

Two claims, checked on every run (pytest *or* ``python
benchmarks/bench_batch.py``, the CI smoke step):

1. **SoA speedup.**  A six-measure bundle (full ignorance report,
   ``optP``, the equilibrium extremes, ``eq_C``, ``optC``, and interim
   best-response dynamics) over :data:`N_GAMES` members of one
   same-shape population family — every member fresh-built, lowered,
   and evaluated — is at least :data:`TARGET_SPEEDUP` times faster
   through ``BatchSession.evaluate_many(kernels="auto")`` (one
   structure-of-arrays bucket, one NumPy call per kernel) than through
   the looped per-game path.
2. **Bit-identical rows, errors included.**  Every game's row — values
   *and* captured exceptions (population members routinely have no pure
   Bayesian equilibrium, or non-converging dynamics) — must be
   identical between the two paths.

The artifact meta records P50/P95/max per-game looped latencies (the
baseline's distribution, so regressions show up as tail movement, not
just total time) and the SoA bucket occupancy from ``bucket_plan()``:
the whole family must land in **one** bucket with zero fallbacks.

Wall-clock numbers land in ``results/bench-batch/meta.json``.
"""

import json
import pathlib
import sys
import time

from repro.analysis.census import population_game
from repro.core.session import BatchSession, GameSession, query
from repro.runtime.artifacts import ArtifactStore

#: Acceptance floor for the SoA-vs-looped speedup on the 1k-game batch.
TARGET_SPEEDUP = 5.0

#: Population size (the gate demands a four-digit batch).
N_GAMES = 1000

#: The same-shape family (see ``repro.analysis.census.FAMILIES``).
FAMILY = "bench-3x2x2s4"

#: Timing repetitions; best-of-N (min) filters scheduler noise.  The
#: looped side runs once — it is the expensive baseline.
SOA_REPEATS = 2
LOOP_REPEATS = 1

#: The measure bundle both paths answer for every member.
BUNDLE = [
    query("ignorance_report"),
    query("opt_p"),
    query("eq_p"),
    query("eq_c"),
    query("opt_c"),
    query("dynamics", max_rounds=200),
]


def fresh_sessions():
    """Fresh builds every time: lowerings cache on the game object, so
    reusing games would hand whichever path runs second a warm cache."""
    return [
        GameSession(population_game(FAMILY, member))
        for member in range(N_GAMES)
    ]


def _fold(row):
    """One comparable row: exceptions and reports become plain data."""
    folded = []
    for cell in row:
        if isinstance(cell, Exception):
            folded.append(("error", type(cell).__name__, str(cell)))
        elif hasattr(cell, "as_dict"):
            folded.append(cell.as_dict())
        else:
            folded.append(cell)
    return folded


def _best_of(repeats, run):
    best_seconds = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return best_seconds, result


def run_looped():
    """The per-game baseline, timed member by member.

    Each member pays its own build + lowering + kernels through
    ``kernels="loop"`` — exactly what a caller without the batch engine
    would write — and the per-game latencies feed the P50/P95 tail
    stats in the artifact.
    """
    rows = []
    latencies = []
    for member in range(N_GAMES):
        start = time.perf_counter()
        singleton = BatchSession.from_sessions(
            [GameSession(population_game(FAMILY, member))]
        )
        table = singleton.evaluate_many(
            BUNDLE, kernels="loop", on_error="capture"
        )
        latencies.append(time.perf_counter() - start)
        rows.append(_fold(table[0]))
    return rows, latencies


def run_soa():
    """The batch path: one ``BatchSession`` over the whole population."""
    batch = BatchSession.from_sessions(fresh_sessions())
    tables = batch.evaluate_many(BUNDLE, kernels="auto", on_error="capture")
    return [_fold(row) for row in tables], batch


def exact_quantile(sorted_values, q):
    """The nearest-rank quantile of an ascending list (no interpolation)."""
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def run_benchmark():
    soa_seconds, (soa_rows, batch) = _best_of(SOA_REPEATS, run_soa)
    # Occupancy *after* the timed run: bucket_plan() forces lowerings.
    plan = batch.bucket_plan()
    loop_seconds, (loop_rows, latencies) = _best_of(LOOP_REPEATS, run_looped)
    flat = sorted(latencies)
    error_games = sum(
        1 for row in soa_rows if any(
            isinstance(cell, tuple) and cell and cell[0] == "error"
            for cell in row
        )
    )
    meta = {
        "games": N_GAMES,
        "family": FAMILY,
        "bundle": [item.measure for item in BUNDLE],
        "looped_seconds": round(loop_seconds, 3),
        "soa_seconds": round(soa_seconds, 3),
        "speedup": round(loop_seconds / max(soa_seconds, 1e-9), 1),
        "target_speedup": TARGET_SPEEDUP,
        "values_identical": soa_rows == loop_rows,
        "error_games": error_games,
        "loop_p50_seconds": round(exact_quantile(flat, 0.50), 6),
        "loop_p95_seconds": round(exact_quantile(flat, 0.95), 6),
        "loop_max_seconds": round(flat[-1], 6),
        "buckets": plan,
    }
    store = ArtifactStore(root=pathlib.Path(__file__).parent.parent / "results")
    store.write("bench-batch", [], meta=meta)
    return meta


def check_meta(meta):
    """The gate, shared by the pytest wrapper and ``main()``."""
    failures = []
    if not meta["values_identical"]:
        failures.append(
            "SoA rows differ from looped rows (values or errors)"
        )
    if meta["speedup"] < meta["target_speedup"]:
        failures.append(
            f"SoA speedup {meta['speedup']}x below target "
            f"{meta['target_speedup']}x"
        )
    plan = meta["buckets"]
    if plan["games"] != meta["games"]:
        failures.append(f"bucket plan lost games: {plan}")
    if plan["fallback"] != 0:
        failures.append(f"same-shape family hit the fallback path: {plan}")
    if plan["buckets"] != [meta["games"]]:
        failures.append(
            f"same-shape family split across buckets: {plan['buckets']}"
        )
    if meta["loop_p50_seconds"] > meta["loop_p95_seconds"]:
        failures.append("latency quantiles are inconsistent")
    return failures


def test_batch_soa_speedup_and_identity(record):
    meta = run_benchmark()
    record([])
    assert not check_meta(meta), meta


def main() -> int:
    meta = run_benchmark()
    print(json.dumps(meta, indent=2, sort_keys=True))
    failures = check_meta(meta)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"OK: {meta['speedup']}x SoA speedup over the looped path on "
        f"{meta['games']} games (looped P50 {meta['loop_p50_seconds']}s, "
        f"P95 {meta['loop_p95_seconds']}s; {meta['error_games']} games "
        f"answered with captured errors)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
