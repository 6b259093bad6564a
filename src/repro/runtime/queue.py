"""Database-backed pull queue for elastic distributed sweeps.

The shard scheduler (:mod:`repro.runtime.shard`) *pushes* fixed ``K/N``
plans: every machine must be enumerated up front and a crashed worker
orphans its slice until a human re-runs it.  This module replaces push
with *pull*: ``python -m repro queue fill`` inserts one row per unique
:meth:`~repro.runtime.spec.UnitTask.address` into a sqlite work table,
and any number of ``python -m repro worker`` processes — started and
stopped at will, on any machine that can reach the database file —
transactionally claim rows, execute them through the normal executor
and result cache, and write values back.  The fleet is elastic: add a
worker and it starts claiming, kill one and its lease expires and the
rows re-queue.

State machine (per row)::

    pending ──claim──▶ claimed ──done──▶ done
       ▲                  │
       │                  ├──failure──▶ failed ──requeue──▶ pending
       │                  │                │
       └──lease expiry────┘                └─(attempts exhausted)─▶ dead

* **Claim** is a single ``UPDATE ... WHERE state='pending'`` carrying a
  fresh claim token, so N racing workers (threads or processes) get
  exactly one winner per row — sqlite serializes writers, and a loser's
  update simply matches zero rows.  A claim takes up to ``limit`` rows
  *of one task reference*, so same-signature groups reach
  :func:`~repro.runtime.executor.run_units` together and fuse into the
  registered batch runner exactly like a local run.
* **Leases**: a claim holds ``lease_seconds``; workers renew via
  :meth:`WorkQueue.heartbeat`.  A row whose lease expires is a straggler
  (crashed or wedged worker) and :meth:`WorkQueue.requeue` moves it back
  to ``pending`` — or to the terminal ``dead`` state once its bounded
  retry budget (``max_attempts``, counted at claim time) is exhausted.
* **Results** are content-addressed: the row key is the engine-free
  :meth:`UnitTask.address`, the value is the same JSON payload the
  result cache stores (one codec — :func:`repro.runtime.cache.
  encode_value`), and the computing engine rides along.  Unit tasks are
  pure functions of their parameters, so a duplicate done-write (e.g. a
  straggler finishing after its lease re-queued the row) must carry a
  byte-identical value; a mismatch raises :class:`QueueError` instead of
  silently corrupting the sweep.

``collect_queue`` is the merge half: it verifies coverage (every unique
unit of the selected sweeps has a ``done`` result row), checks engine
and package-version uniformity, and reduces through
:func:`~repro.runtime.executor.collect_sweeps`, the collector
``merge_shards`` uses too — so ``report --from-queue`` artifacts are
byte-identical to ``--shard``-merged and plain local runs.  ``shard
merge`` remains the offline fallback when no shared database is
reachable.

The schema sticks to portable ANSI column types (TEXT/REAL/INTEGER) so
the table can move to MySQL/PostgreSQL; the one sqlite-ism to adapt is
``INSERT OR IGNORE`` (MySQL: ``INSERT IGNORE``) and the self-referencing
claim subquery (MySQL needs a derived-table wrapper).  See
docs/QUEUE.md.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.tensor import get_engine
from .cache import ResultCache, decode_value, encode_value
from .executor import (
    RunStats,
    SweepRun,
    UnitResult,
    collect_sweeps,
    expand_sweeps,
    run_units,
)
from .spec import SweepSpec, UnitTask, _version_salt

#: Queue schema version, bumped on incompatible layout changes.
QUEUE_FORMAT = 1

#: Default bounded retry budget per row (attempts are counted at claim).
DEFAULT_MAX_ATTEMPTS = 3

#: Row states.  ``done`` and ``dead`` are terminal.
STATES = ("pending", "claimed", "done", "failed", "dead")


class QueueError(RuntimeError):
    """The queue cannot satisfy a request (missing rows, conflicting
    done-writes, corrupt results, version/engine mismatch)."""


_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS queue_meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS tasks (
        address        TEXT PRIMARY KEY,
        task           TEXT NOT NULL,
        params         TEXT NOT NULL,
        state          TEXT NOT NULL DEFAULT 'pending',
        owner          TEXT,
        claim_token    TEXT,
        lease_deadline REAL,
        attempts       INTEGER NOT NULL DEFAULT 0,
        max_attempts   INTEGER NOT NULL DEFAULT 3,
        enqueued_at    REAL NOT NULL,
        claimed_at     REAL,
        finished_at    REAL,
        error          TEXT
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS tasks_by_state
        ON tasks (state, task, enqueued_at, address)
    """,
    """
    CREATE TABLE IF NOT EXISTS results (
        address    TEXT PRIMARY KEY,
        engine     TEXT NOT NULL,
        value      TEXT NOT NULL,
        seconds    REAL NOT NULL DEFAULT 0.0,
        owner      TEXT,
        written_at REAL NOT NULL
    )
    """,
)


@dataclass(frozen=True)
class QueueTask:
    """One claimed work-table row, ready to execute."""

    address: str
    task: str
    params: Dict[str, Any]
    attempts: int
    max_attempts: int

    def unit(self) -> UnitTask:
        """Rebuild the :class:`UnitTask` and verify its content address.

        The address was computed at fill time from the same task + params
        + package version; recomputing it catches corrupt rows and
        version skew before any cycles are spent on a wrong unit.
        """
        unit = UnitTask(task=self.task, params=tuple(sorted(self.params.items())))
        if unit.address() != self.address:
            raise QueueError(
                f"queue row {self.address[:12]} does not reproduce its own "
                f"address (corrupt row, or it was filled by another package "
                f"version)"
            )
        return unit


@dataclass
class Claim:
    """One successful claim: a token plus the rows it leased."""

    token: str
    tasks: List[QueueTask] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tasks)

    def __bool__(self) -> bool:
        return bool(self.tasks)


def default_owner() -> str:
    """A human-legible unique worker identity: host, pid, nonce."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


@dataclass
class WorkQueue:
    """A sqlite work table of unit-task rows with transactional claims.

    ``clock`` injects time (``time.time`` by default): lease deadlines,
    expiry checks, and timestamps all flow through it, so the fault
    battery can expire leases deterministically without sleeping.

    Connections are opened per operation (sqlite connects are cheap and
    the file lives on local disk or a shared mount), which keeps every
    instance safe to use from any thread and makes the claim race an
    honest cross-connection one.
    """

    path: Union[Path, str]
    clock: Callable[[], float] = time.time

    def __post_init__(self) -> None:
        self.path = Path(self.path)

    # ------------------------------------------------------------------
    # connection / schema
    # ------------------------------------------------------------------
    @contextmanager
    def _connect(self):
        """One transaction on a fresh connection: commit on success,
        roll back on error, always close (``with conn`` alone would
        leak the per-operation file handle)."""
        conn = sqlite3.connect(str(self.path), timeout=30.0)
        conn.row_factory = sqlite3.Row
        try:
            conn.execute("PRAGMA busy_timeout = 30000")
            with conn:
                yield conn
        finally:
            conn.close()

    def initialize(self) -> None:
        """Create the schema (idempotent) and stamp format + version.

        WAL journaling lets many workers read while one writes — the
        pragma is persistent, so it is set once here, not per connect.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.execute("PRAGMA journal_mode = WAL")
            for statement in _SCHEMA:
                conn.execute(statement)
            existing = self.get_meta("format", conn=conn)
            if existing is not None and int(existing) != QUEUE_FORMAT:
                raise QueueError(
                    f"queue {self.path} has format {existing}, this build "
                    f"speaks format {QUEUE_FORMAT}"
                )
            existing_version = self.get_meta("version", conn=conn)
            if existing_version is not None and existing_version != _version_salt():
                raise QueueError(
                    f"queue {self.path} was created by package version "
                    f"{existing_version!r}, but this is {_version_salt()!r}; "
                    f"unit addresses would not line up — start a fresh queue"
                )
            self._set_meta("format", str(QUEUE_FORMAT), conn)
            self._set_meta("version", _version_salt(), conn)

    def check_version(self) -> None:
        """Refuse to touch a queue filled under another package version."""
        version = self.get_meta("version")
        if version is None:
            raise QueueError(
                f"{self.path} is not an initialized work queue "
                f"(run 'python -m repro queue init' / 'queue fill' first)"
            )
        if version != _version_salt():
            raise QueueError(
                f"queue {self.path} was filled by package version "
                f"{version!r}, but this is {_version_salt()!r}; values would "
                f"not be comparable — start a fresh queue"
            )

    # ------------------------------------------------------------------
    # meta
    # ------------------------------------------------------------------
    def get_meta(
        self, key: str, conn: Optional[sqlite3.Connection] = None
    ) -> Optional[str]:
        def read(c: sqlite3.Connection) -> Optional[str]:
            try:
                row = c.execute(
                    "SELECT value FROM queue_meta WHERE key = ?", (key,)
                ).fetchone()
            except sqlite3.OperationalError:
                return None  # table absent: not an initialized queue
            return None if row is None else str(row["value"])

        if conn is not None:
            return read(conn)
        with self._connect() as fresh:
            return read(fresh)

    def _set_meta(self, key: str, value: str, conn: sqlite3.Connection) -> None:
        conn.execute(
            "INSERT INTO queue_meta (key, value) VALUES (?, ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    # ------------------------------------------------------------------
    # fill
    # ------------------------------------------------------------------
    def fill(
        self,
        sweeps: Sequence[SweepSpec],
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> Tuple[int, int]:
        """Insert one pending row per unique unit of ``sweeps``.

        Idempotent: rows are keyed by the engine-free content address,
        so a second fill of the same specs inserts nothing and never
        disturbs rows already claimed or done — filling is how a sweep
        is *extended* (new grid points append; finished work stands).
        Returns ``(inserted, existing)``.
        """
        if max_attempts < 1:
            raise QueueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.initialize()
        units, _ = expand_sweeps(sweeps)
        unique: List[UnitTask] = []
        seen = set()
        for unit in units:
            if unit not in seen:
                seen.add(unit)
                unique.append(unit)
        now = self.clock()
        inserted = 0
        with self._connect() as conn:
            for unit in unique:
                cursor = conn.execute(
                    "INSERT OR IGNORE INTO tasks "
                    "(address, task, params, state, attempts, max_attempts, "
                    " enqueued_at) "
                    "VALUES (?, ?, ?, 'pending', 0, ?, ?)",
                    (
                        unit.address(),
                        unit.task,
                        json.dumps(unit.kwargs, sort_keys=True),
                        max_attempts,
                        now,
                    ),
                )
                inserted += cursor.rowcount
            spec_hashes = json.loads(self.get_meta("spec_hashes", conn=conn) or "{}")
            spec_hashes.update(
                {sweep.sweep_id: sweep.spec_hash() for sweep in sweeps}
            )
            self._set_meta(
                "spec_hashes", json.dumps(spec_hashes, sort_keys=True), conn
            )
        return inserted, len(unique) - inserted

    # ------------------------------------------------------------------
    # claim / heartbeat / release
    # ------------------------------------------------------------------
    def claim(
        self,
        owner: str,
        limit: int = 1,
        lease_seconds: float = 60.0,
    ) -> Claim:
        """Lease up to ``limit`` pending rows of one task reference.

        The whole claim is a single UPDATE in sqlite's autocommit mode —
        one write transaction — so concurrent claimers get disjoint rows
        and a contested row has exactly one winner.  Restricting a claim
        to one task reference keeps the group homogeneous: the executor
        fuses it into the task's registered batch runner when one exists.
        Returns an empty claim when nothing is pending.
        """
        token = uuid.uuid4().hex
        now = self.clock()
        with self._connect() as conn:
            cursor = conn.execute(
                "UPDATE tasks SET state = 'claimed', owner = ?, "
                "  claim_token = ?, claimed_at = ?, lease_deadline = ?, "
                "  attempts = attempts + 1, error = NULL "
                "WHERE state = 'pending' AND address IN ("
                "  SELECT address FROM tasks "
                "  WHERE state = 'pending' AND task = ("
                "    SELECT task FROM tasks WHERE state = 'pending' "
                "    ORDER BY enqueued_at, address LIMIT 1"
                "  ) ORDER BY enqueued_at, address LIMIT ?)",
                (owner, token, now, now + float(lease_seconds), int(limit)),
            )
            if cursor.rowcount == 0:
                return Claim(token=token)
            rows = conn.execute(
                "SELECT address, task, params, attempts, max_attempts "
                "FROM tasks WHERE claim_token = ? ORDER BY enqueued_at, address",
                (token,),
            ).fetchall()
        return Claim(
            token=token,
            tasks=[
                QueueTask(
                    address=row["address"],
                    task=row["task"],
                    params=json.loads(row["params"]),
                    attempts=int(row["attempts"]),
                    max_attempts=int(row["max_attempts"]),
                )
                for row in rows
            ],
        )

    def heartbeat(self, claim: Union[Claim, str], lease_seconds: float = 60.0) -> int:
        """Renew the lease on every still-held row of a claim.

        Returns how many rows were renewed; fewer than the claim size
        means some leases were lost (expired and re-queued) — the worker
        should treat those rows as no longer its own.
        """
        token = claim.token if isinstance(claim, Claim) else claim
        with self._connect() as conn:
            cursor = conn.execute(
                "UPDATE tasks SET lease_deadline = ? "
                "WHERE claim_token = ? AND state = 'claimed'",
                (self.clock() + float(lease_seconds), token),
            )
            return cursor.rowcount

    def release(self, claim: Union[Claim, str]) -> int:
        """Return still-held rows of a claim to ``pending``, refunding
        the attempt (a graceful hand-back is not a failure)."""
        token = claim.token if isinstance(claim, Claim) else claim
        with self._connect() as conn:
            cursor = conn.execute(
                "UPDATE tasks SET state = 'pending', owner = NULL, "
                "  claim_token = NULL, lease_deadline = NULL, "
                "  attempts = attempts - 1 "
                "WHERE claim_token = ? AND state = 'claimed'",
                (token,),
            )
            return cursor.rowcount

    # ------------------------------------------------------------------
    # writeback
    # ------------------------------------------------------------------
    def mark_done(
        self,
        address: str,
        value: Any,
        engine: str,
        seconds: float = 0.0,
        owner: Optional[str] = None,
    ) -> bool:
        """Write a result row and move the task to ``done``.

        Values are canonical JSON through the shared cache codec.  Unit
        tasks are pure, so a duplicate write — a straggler finishing
        after lease expiry re-queued (and possibly re-ran) its row — is
        legal iff the value is byte-identical; a mismatch raises
        :class:`QueueError` because it means the two computations
        disagreed and the sweep can no longer be trusted.  Returns True
        if this call wrote the result, False if an identical result was
        already there.
        """
        encoded = encode_value(value)
        now = self.clock()
        with self._connect() as conn:
            try:
                conn.execute(
                    "INSERT INTO results "
                    "(address, engine, value, seconds, owner, written_at) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (address, engine, encoded, float(seconds), owner, now),
                )
                wrote = True
            except sqlite3.IntegrityError:
                existing = conn.execute(
                    "SELECT engine, value FROM results WHERE address = ?",
                    (address,),
                ).fetchone()
                if existing["value"] != encoded or existing["engine"] != engine:
                    raise QueueError(
                        f"conflicting done-write for unit {address[:12]}: a "
                        f"result computed under engine {existing['engine']!r} "
                        f"is already recorded and differs from this one "
                        f"(engine {engine!r}); unit tasks must be "
                        f"deterministic — refusing to overwrite"
                    ) from None
                wrote = False
            conn.execute(
                "UPDATE tasks SET state = 'done', owner = NULL, "
                "  claim_token = NULL, lease_deadline = NULL, "
                "  finished_at = ?, error = NULL "
                "WHERE address = ? AND state != 'done'",
                (now, address),
            )
        return wrote

    def mark_failed(self, address: str, error: str, owner: Optional[str] = None) -> str:
        """Record a failure; the row retries until its budget runs out.

        Returns the new state: ``failed`` (a later :meth:`requeue` will
        re-pend it) or the terminal ``dead`` when the attempt that just
        failed was the last one in the budget.
        """
        now = self.clock()
        with self._connect() as conn:
            conn.execute(
                "UPDATE tasks SET "
                "  state = CASE WHEN attempts >= max_attempts "
                "               THEN 'dead' ELSE 'failed' END, "
                "  owner = NULL, claim_token = NULL, lease_deadline = NULL, "
                "  finished_at = ?, error = ? "
                "WHERE address = ? AND state = 'claimed'",
                (now, error, address),
            )
            row = conn.execute(
                "SELECT state FROM tasks WHERE address = ?", (address,)
            ).fetchone()
        if row is None:
            raise QueueError(f"no queue row for unit {address[:12]}")
        return str(row["state"])

    # ------------------------------------------------------------------
    # straggler / retry management
    # ------------------------------------------------------------------
    def requeue(self, include_dead: bool = False) -> Dict[str, int]:
        """Re-pend expired leases and failed rows; bury exhausted ones.

        * ``claimed`` rows whose lease deadline has passed belong to a
          crashed or wedged worker: back to ``pending`` if budget
          remains, else ``dead``.
        * ``failed`` rows with budget left go back to ``pending``.
        * ``include_dead`` resurrects ``dead`` rows with a fresh attempt
          budget (the manual operator override).

        Returns ``{"requeued": ..., "dead": ..., "resurrected": ...}``.
        """
        now = self.clock()
        with self._connect() as conn:
            buried = conn.execute(
                "UPDATE tasks SET state = 'dead', owner = NULL, "
                "  claim_token = NULL, lease_deadline = NULL, "
                "  error = COALESCE(error, 'lease expired') "
                "WHERE state = 'claimed' AND lease_deadline < ? "
                "  AND attempts >= max_attempts",
                (now,),
            ).rowcount
            expired = conn.execute(
                "UPDATE tasks SET state = 'pending', owner = NULL, "
                "  claim_token = NULL, lease_deadline = NULL "
                "WHERE state = 'claimed' AND lease_deadline < ?",
                (now,),
            ).rowcount
            retried = conn.execute(
                "UPDATE tasks SET state = 'pending', owner = NULL, "
                "  claim_token = NULL, lease_deadline = NULL "
                "WHERE state = 'failed' AND attempts < max_attempts",
            ).rowcount
            exhausted = conn.execute(
                "UPDATE tasks SET state = 'dead' "
                "WHERE state = 'failed' AND attempts >= max_attempts",
            ).rowcount
            resurrected = 0
            if include_dead:
                resurrected = conn.execute(
                    "UPDATE tasks SET state = 'pending', attempts = 0, "
                    "  owner = NULL, claim_token = NULL, "
                    "  lease_deadline = NULL, error = NULL "
                    "WHERE state = 'dead'",
                ).rowcount
        return {
            "requeued": expired + retried,
            "dead": buried + exhausted,
            "resurrected": resurrected,
        }

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Row counts per state (every state present, zeros included)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT state, COUNT(*) AS n FROM tasks GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in STATES}
        for row in rows:
            counts[str(row["state"])] = int(row["n"])
        return counts

    def claimable(self) -> int:
        """Rows a worker could make progress on right now or soon:
        pending, retryable failures, and expired leases."""
        now = self.clock()
        with self._connect() as conn:
            row = conn.execute(
                "SELECT COUNT(*) AS n FROM tasks WHERE "
                "  state = 'pending' "
                "  OR (state = 'failed' AND attempts < max_attempts) "
                "  OR (state = 'claimed' AND lease_deadline < ?)",
                (now,),
            ).fetchone()
        return int(row["n"])

    def status(self) -> Dict[str, Any]:
        """A JSON-ready snapshot for ``python -m repro queue status``."""
        counts = self.counts()
        with self._connect() as conn:
            results = conn.execute(
                "SELECT COUNT(*) AS n FROM results"
            ).fetchone()
            owners = conn.execute(
                "SELECT owner, COUNT(*) AS n, MIN(lease_deadline) AS lease "
                "FROM tasks WHERE state = 'claimed' GROUP BY owner "
                "ORDER BY owner"
            ).fetchall()
            errors = conn.execute(
                "SELECT address, error FROM tasks "
                "WHERE state IN ('failed', 'dead') AND error IS NOT NULL "
                "ORDER BY address LIMIT 5"
            ).fetchall()
        return {
            "path": str(self.path),
            "version": self.get_meta("version"),
            "states": counts,
            "total": sum(counts.values()),
            "results": int(results["n"]),
            "workers": [
                {
                    "owner": row["owner"],
                    "claimed": int(row["n"]),
                    "lease_deadline": row["lease"],
                }
                for row in owners
            ],
            "recent_errors": [
                {"address": row["address"], "error": row["error"]}
                for row in errors
            ],
        }

    def result_rows(self) -> Dict[str, Dict[str, Any]]:
        """All result rows keyed by address (values still encoded)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT address, engine, value, seconds FROM results"
            ).fetchall()
        return {
            str(row["address"]): {
                "engine": str(row["engine"]),
                "value": str(row["value"]),
                "seconds": float(row["seconds"]),
            }
            for row in rows
        }


# ----------------------------------------------------------------------
# worker loop
# ----------------------------------------------------------------------

class WorkerInterrupted(BaseException):
    """Raised into the worker loop by the CLI's SIGTERM handler.

    Derives from BaseException so task-level ``except Exception``
    recovery cannot swallow a shutdown request.
    """


@dataclass
class WorkerStats:
    """Accounting for one :func:`run_worker` invocation."""

    claims: int = 0
    executed: int = 0
    done: int = 0
    failed: int = 0
    released: int = 0

    def describe(self) -> str:
        return (
            f"{self.claims} claim(s): {self.done} done, {self.failed} "
            f"failed, {self.released} released"
        )


def _execute_claim(
    queue: WorkQueue,
    claim: Claim,
    stats: WorkerStats,
    cache: Optional[ResultCache],
    backend: str,
    jobs: int,
    owner: str,
) -> None:
    """Run one claim's units and write every outcome back.

    The whole group goes through :func:`run_units` first (so batch
    runners fuse and the cache fills exactly like a local run); if the
    group run raises, units are retried one by one so a single poisonous
    unit fails alone instead of taking its groupmates down with it.
    """
    engine = get_engine()
    units = [task.unit() for task in claim.tasks]

    def writeback(task: QueueTask, result: UnitResult) -> None:
        queue.mark_done(
            task.address,
            result.value,
            engine=engine,
            seconds=result.seconds,
            owner=owner,
        )
        stats.done += 1

    try:
        results, _ = run_units(units, jobs=jobs, cache=cache, backend=backend)
    except Exception as group_error:
        if len(units) == 1:
            queue.mark_failed(claim.tasks[0].address, repr(group_error), owner=owner)
            stats.failed += 1
            return
        for task, unit in zip(claim.tasks, units):
            try:
                singles, _ = run_units(
                    [unit], jobs=1, cache=cache, backend="serial"
                )
            except Exception as unit_error:
                queue.mark_failed(task.address, repr(unit_error), owner=owner)
                stats.failed += 1
            else:
                writeback(task, singles[0])
        return
    for task, result in zip(claim.tasks, results):
        writeback(task, result)


def run_worker(
    queue: WorkQueue,
    cache: Optional[ResultCache] = None,
    owner: Optional[str] = None,
    backend: str = "serial",
    jobs: int = 1,
    lease_seconds: float = 60.0,
    heartbeat_seconds: Optional[float] = None,
    poll_seconds: float = 0.5,
    max_claim: int = 16,
    keep_alive: bool = False,
    stop_event: Optional[threading.Event] = None,
    on_claim: Optional[Callable[[Claim], None]] = None,
) -> WorkerStats:
    """Claim-execute-writeback until the queue drains (or forever).

    The pull loop: re-queue stragglers, claim a same-task group, renew
    its lease from a background heartbeat thread while the executor
    runs, write values back, repeat.  With ``keep_alive`` the worker
    polls for new work instead of exiting when nothing is claimable.
    ``stop_event`` (set by the CLI's signal handler) requests a graceful
    exit at the next loop boundary; a :class:`WorkerInterrupted` raised
    mid-execution is also caught here, and either way still-leased rows
    are released back to ``pending`` — a terminated worker never strands
    or loses a unit.  ``on_claim`` is a test hook observing each
    non-empty claim before execution.
    """
    queue.check_version()
    owner = owner if owner is not None else default_owner()
    stop = stop_event if stop_event is not None else threading.Event()
    heartbeat_every = (
        float(heartbeat_seconds)
        if heartbeat_seconds is not None
        else max(0.05, float(lease_seconds) / 3.0)
    )
    stats = WorkerStats()
    claim: Optional[Claim] = None
    try:
        while not stop.is_set():
            queue.requeue()
            claim = queue.claim(
                owner, limit=max_claim, lease_seconds=lease_seconds
            )
            if not claim:
                claim = None
                if not keep_alive and queue.claimable() == 0:
                    break
                if stop.wait(poll_seconds):
                    break
                continue
            stats.claims += 1
            stats.executed += len(claim)
            if on_claim is not None:
                on_claim(claim)
            beat_done = threading.Event()

            def beat(token: str = claim.token) -> None:
                while not beat_done.wait(heartbeat_every):
                    queue.heartbeat(token, lease_seconds=lease_seconds)

            beater = threading.Thread(target=beat, daemon=True)
            beater.start()
            try:
                _execute_claim(
                    queue, claim, stats, cache, backend, jobs, owner
                )
            finally:
                beat_done.set()
                beater.join()
            claim = None
    except WorkerInterrupted:
        pass
    finally:
        if claim is not None:
            stats.released += queue.release(claim)
    return stats


# ----------------------------------------------------------------------
# collection
# ----------------------------------------------------------------------

def collect_queue(
    sweeps: Sequence[SweepSpec],
    queue: WorkQueue,
    cache: Optional[ResultCache] = None,
) -> Tuple[List[SweepRun], RunStats, Dict[str, Any]]:
    """Reduce a queue's result rows into full sweep runs.

    Every unique unit of the expanded sweeps must have a ``done`` result
    row (found by engine-free address) and all rows must share one
    engine; :func:`~repro.runtime.executor.collect_sweeps` checks both
    and reduces, so the cell rows are byte-identical to an unsharded
    local run under the same engine.

    With ``cache``, every collected value is also imported into the
    local result cache under its ordinary engine-salted key (the same
    codec and idempotence as ``cache merge --from``), so a later
    non-queue ``report`` recomputes nothing.
    """
    queue.check_version()
    table = queue.result_rows()
    counts = queue.counts()

    def load(unit: UnitTask, row: Mapping[str, Any]) -> Any:
        try:
            value = decode_value(row["value"])
        except ValueError:
            raise QueueError(
                f"corrupt result row for unit {unit.address()[:12]} in "
                f"{queue.path}: value is not valid JSON; delete the row "
                f"and re-queue the unit"
            ) from None
        if cache is not None:
            key = unit.key(engine=row["engine"])
            if not cache.path_for(key).exists():
                cache.put(
                    key,
                    value,
                    meta={
                        "task": unit.task,
                        "params": list(unit.params),
                        "engine": row["engine"],
                    },
                )
        return value

    sweep_runs, stats, engine = collect_sweeps(
        sweeps,
        table,
        backend="queue-collect",
        error=QueueError,
        missing_from=f"have no result row in {queue.path}",
        missing_hint=(
            f"queue states: {counts}. Run more workers (or 'queue requeue' "
            f"stragglers) and collect again"
        ),
        producers=("queue results", "workers"),
        load=load,
    )
    collect_meta = {
        "engine": engine,
        "queue": str(queue.path),
        "queue_states": counts,
        "result_rows": len(table),
        "executed_seconds": round(stats.executed_seconds, 3),
    }
    return sweep_runs, stats, collect_meta


def fill_queue(
    sweeps: Sequence[SweepSpec],
    path: Union[Path, str],
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    clock: Callable[[], float] = time.time,
) -> Tuple[WorkQueue, int, int]:
    """Create-or-open the queue at ``path`` and fill it from ``sweeps``."""
    queue = WorkQueue(path, clock=clock)
    inserted, existing = queue.fill(sweeps, max_attempts=max_attempts)
    return queue, inserted, existing
