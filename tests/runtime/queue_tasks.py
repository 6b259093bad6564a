"""Spawn-safe helper tasks for the pull-queue fault-injection battery.

Lives beside the tests (importable as ``queue_tasks`` — pytest puts this
directory on ``sys.path``, worker subprocesses get it via PYTHONPATH,
and ``spawn`` children inherit the parent's path).  The tasks are
deliberately tiny and deterministic in their *values* while exposing the
control a crash test needs: blocking on a sentinel file so the test can
hold a worker mid-unit, or failing on demand.
"""

import json
import time
from pathlib import Path

from repro.runtime.queue import WorkQueue


def quick_unit(k: int) -> float:
    """A trivially cheap pure unit: value depends only on ``k``."""
    return float(k * k + 1)


def failing_unit(k: int, poison: int) -> float:
    """Fails for ``k == poison``; a cheap pure value otherwise."""
    if k == poison:
        raise RuntimeError(f"injected failure for k={k}")
    return float(k + 100)


def exploding_unit(k: int) -> float:
    """Raises the package's guard error, as an over-large unit would."""
    from repro import ExplosionError

    raise ExplosionError("strategy profiles", 8 * k, 1)


def blocking_unit(k: int, sentinel_dir: str, timeout: float = 60.0) -> float:
    """Announce start, then block until released (or time out).

    Writes ``started-<k>`` into ``sentinel_dir`` so the test knows the
    worker is mid-unit, then polls for ``release`` — the window in which
    the test delivers SIGTERM/SIGKILL.  The value is pure in ``k``.
    """
    directory = Path(sentinel_dir)
    (directory / f"started-{k}").write_text(str(k), encoding="utf-8")
    deadline = time.monotonic() + timeout
    while not (directory / "release").exists():
        if time.monotonic() > deadline:
            raise RuntimeError(f"blocking_unit(k={k}) never released")
        time.sleep(0.02)
    return float(10 * k + 7)


def reduce_values(scenario, results):
    """A reducer producing one cell whose notes fold in every unit value
    (so cell rows differ iff any unit value differs)."""
    from repro.analysis.table1 import CellResult, SeriesPoint

    # A single aggregate point keeps CellResult's shape-fitting out of
    # the picture (fits need >= 2 points); notes still pin every value.
    series = [
        SeriesPoint(
            parameter=float(len(results)),
            value=float(sum(result.value for result in results)),
        )
    ]
    return [
        CellResult(
            experiment_id=scenario.scenario_id,
            graph_class="fuzz",
            ratio="value",
            bound_kind="universal",
            paper_claim="queue battery helper",
            series=series,
            expected_shape="linear",
            notes=json.dumps([result.value for result in results]),
            bound_check=True,
        )
    ]


def claim_until_empty(db_path: str, out_path: str, owner: str) -> None:
    """Race entry for the multi-process claim test: claim rows one at a
    time until the queue has nothing pending, recording every claimed
    address; the test asserts the per-process sets are disjoint and
    complete."""
    queue = WorkQueue(db_path)
    claimed = []
    while True:
        claim = queue.claim(owner, limit=1, lease_seconds=300.0)
        if not claim:
            if queue.counts()["pending"] == 0:
                break
            continue
        claimed.extend(task.address for task in claim.tasks)
    Path(out_path).write_text(json.dumps(claimed), encoding="utf-8")
