"""Pull-queue battery: transactional claims, leases, retries, writeback.

Everything time-dependent runs under an injected fake clock
(``WorkQueue(path, clock=...)``) so lease expiry, straggler re-queue,
and retry burial are deterministic — no sleeps, no flakes.  The claim
races are real races: every contender opens its own connection (threads
here, spawned processes in the companion ``claim_until_empty`` helper)
and the assertions demand exactly-one-winner partitions.
"""

import json
import multiprocessing
import sqlite3
import threading

import pytest
from queue_tasks import claim_until_empty, quick_unit

from repro.runtime.artifacts import cell_to_dict
from repro.runtime.cache import ResultCache
from repro.runtime.executor import run_sweeps
from repro.runtime.queue import (
    DEFAULT_MAX_ATTEMPTS,
    QueueError,
    WorkQueue,
    WorkerInterrupted,
    collect_queue,
    fill_queue,
    run_worker,
)
from repro.runtime.spec import ScenarioSpec, SweepSpec

_EXPERIMENTS = "repro.analysis.experiments"


class FakeClock:
    """An injectable, manually advanced clock for lease determinism."""

    def __init__(self, now: float = 1_000.0) -> None:
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


def bliss_sweep(ks=(4, 8, 16), sweep_id="QBLISS"):
    """A real (cheap) sweep over the closed-form bliss-ratio unit."""
    scenario = ScenarioSpec(
        scenario_id=f"{sweep_id}-S0",
        task=f"{_EXPERIMENTS}:unit_anshelevich_bliss_ratio",
        reducer=f"{_EXPERIMENTS}:reduce_fig1",
        grid={"k": tuple(ks)},
        fixed={},
        description="queue battery: bliss ratio",
    )
    return SweepSpec(sweep_id, (scenario,), description="queue battery")


def helper_sweep(ks, task="queue_tasks:quick_unit", fixed=None, sweep_id="QHELP"):
    """A sweep over the fault-injection helper tasks beside this test."""
    scenario = ScenarioSpec(
        scenario_id=f"{sweep_id}-S0",
        task=task,
        reducer="queue_tasks:reduce_values",
        grid={"k": tuple(ks)},
        fixed=dict(fixed or {}),
        description="queue battery: helper task",
    )
    return SweepSpec(sweep_id, (scenario,), description="queue battery")


def addresses_of(sweep):
    return {unit.address() for unit in sweep.expand()}


def encoded_rows(sweep_runs) -> str:
    return json.dumps(
        [cell_to_dict(cell) for run in sweep_runs for cell in run.cells],
        sort_keys=True,
    )


def make_queue(tmp_path, clock=None) -> WorkQueue:
    queue = WorkQueue(tmp_path / "queue.sqlite", **({"clock": clock} if clock else {}))
    queue.initialize()
    return queue


def raw_rows(queue, sql, args=()):
    with sqlite3.connect(str(queue.path)) as conn:
        conn.row_factory = sqlite3.Row
        return conn.execute(sql, args).fetchall()


def raw_exec(queue, sql, args=()):
    with sqlite3.connect(str(queue.path)) as conn:
        conn.execute(sql, args)


# ----------------------------------------------------------------------
# fill
# ----------------------------------------------------------------------

class TestFill:
    def test_fill_inserts_one_pending_row_per_unique_unit(self, tmp_path):
        queue = make_queue(tmp_path)
        sweep = bliss_sweep((4, 8, 16))
        inserted, existing = queue.fill([sweep])
        assert (inserted, existing) == (3, 0)
        counts = queue.counts()
        assert counts["pending"] == 3
        assert sum(counts.values()) == 3
        rows = raw_rows(queue, "SELECT address, max_attempts FROM tasks")
        assert {row["address"] for row in rows} == addresses_of(sweep)
        assert {row["max_attempts"] for row in rows} == {DEFAULT_MAX_ATTEMPTS}

    def test_double_fill_is_idempotent_and_preserves_progress(self, tmp_path):
        queue = make_queue(tmp_path)
        sweep = bliss_sweep((4, 8))
        assert queue.fill([sweep]) == (2, 0)
        claim = queue.claim("w1", limit=1)
        assert len(claim) == 1
        assert queue.fill([sweep]) == (0, 2)
        counts = queue.counts()
        assert counts == {
            "pending": 1, "claimed": 1, "done": 0, "failed": 0, "dead": 0,
        }
        held = raw_rows(
            queue,
            "SELECT owner FROM tasks WHERE address = ?",
            (claim.tasks[0].address,),
        )
        assert held[0]["owner"] == "w1"

    def test_fill_extends_a_sweep_with_new_grid_points_only(self, tmp_path):
        queue = make_queue(tmp_path)
        assert queue.fill([bliss_sweep((4, 8))]) == (2, 0)
        assert queue.fill([bliss_sweep((4, 8, 16))]) == (1, 2)
        assert queue.counts()["pending"] == 3

    def test_fill_rejects_nonpositive_retry_budget(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(QueueError, match="max_attempts"):
            queue.fill([bliss_sweep()], max_attempts=0)

    def test_fill_queue_convenience_creates_and_fills(self, tmp_path):
        queue, inserted, existing = fill_queue(
            [bliss_sweep((4, 8))], tmp_path / "fresh" / "q.sqlite"
        )
        assert (inserted, existing) == (2, 0)
        assert queue.counts()["pending"] == 2


# ----------------------------------------------------------------------
# claims
# ----------------------------------------------------------------------

class TestClaim:
    def test_claim_is_limited_and_deterministic(self, tmp_path):
        queue = make_queue(tmp_path)
        sweep = bliss_sweep((4, 8, 16, 32))
        queue.fill([sweep])
        first = queue.claim("w1", limit=2)
        second = queue.claim("w2", limit=2)
        assert len(first) == 2 and len(second) == 2
        claimed = [task.address for task in first.tasks + second.tasks]
        assert len(set(claimed)) == 4
        # Deterministic order: (enqueued_at, address) ascending.
        assert claimed == sorted(claimed)
        assert queue.claim("w3", limit=2).tasks == []

    def test_claim_group_is_homogeneous_in_task_reference(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([bliss_sweep((4, 8)), helper_sweep((1, 2, 3))])
        while True:
            claim = queue.claim("w1", limit=16)
            if not claim:
                break
            assert len({task.task for task in claim.tasks}) == 1

    def test_claim_increments_attempts_and_records_lease(self, tmp_path):
        clock = FakeClock(now=500.0)
        queue = make_queue(tmp_path, clock=clock)
        queue.fill([bliss_sweep((4,))])
        claim = queue.claim("w1", limit=1, lease_seconds=30.0)
        assert claim.tasks[0].attempts == 1
        row = raw_rows(
            queue, "SELECT state, owner, lease_deadline, attempts FROM tasks"
        )[0]
        assert row["state"] == "claimed"
        assert row["owner"] == "w1"
        assert row["attempts"] == 1
        assert row["lease_deadline"] == pytest.approx(530.0)

    def test_contested_row_has_exactly_one_winner_across_threads(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([bliss_sweep((4,))])
        barrier = threading.Barrier(16)
        winners = []

        def contend(index: int) -> None:
            handle = WorkQueue(queue.path)  # own per-operation connections
            barrier.wait()
            claim = handle.claim(f"racer-{index}", limit=1)
            if claim:
                winners.append((index, claim.tasks[0].address))

        threads = [
            threading.Thread(target=contend, args=(index,)) for index in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1
        assert queue.counts()["claimed"] == 1

    def test_racing_threads_partition_the_queue_disjointly(self, tmp_path):
        queue = make_queue(tmp_path)
        sweep = bliss_sweep((4, 8, 16, 32, 64))
        extra = helper_sweep((1, 2, 3, 4, 5, 6, 7))
        queue.fill([sweep, extra])
        expected = addresses_of(sweep) | addresses_of(extra)
        per_thread = {index: [] for index in range(4)}

        def drain(index: int) -> None:
            handle = WorkQueue(queue.path)
            while True:
                claim = handle.claim(f"drainer-{index}", limit=2)
                if not claim:
                    break
                per_thread[index].extend(task.address for task in claim.tasks)

        threads = [
            threading.Thread(target=drain, args=(index,)) for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        claimed = [address for got in per_thread.values() for address in got]
        assert len(claimed) == len(expected), "no row claimed twice"
        assert set(claimed) == expected, "no row left behind"

    @pytest.mark.slow
    def test_racing_processes_partition_the_queue_disjointly(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([bliss_sweep((4, 8, 16, 32, 64)), helper_sweep(range(1, 8))])
        expected = {
            row["address"] for row in raw_rows(queue, "SELECT address FROM tasks")
        }
        context = multiprocessing.get_context("spawn")
        outputs = [tmp_path / f"claims-{index}.json" for index in range(3)]
        workers = [
            context.Process(
                target=claim_until_empty,
                args=(str(queue.path), str(outputs[index]), f"proc-{index}"),
            )
            for index in range(3)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        claimed = [
            address
            for output in outputs
            for address in json.loads(output.read_text(encoding="utf-8"))
        ]
        assert len(claimed) == len(expected)
        assert set(claimed) == expected


# ----------------------------------------------------------------------
# leases, heartbeats, stragglers
# ----------------------------------------------------------------------

class TestLeaseAndHeartbeat:
    def test_heartbeat_renews_the_lease(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock)
        queue.fill([bliss_sweep((4, 8))])
        claim = queue.claim("w1", limit=2, lease_seconds=10.0)
        clock.advance(8.0)
        assert queue.heartbeat(claim, lease_seconds=10.0) == 2
        clock.advance(8.0)  # past the original deadline, inside the renewal
        assert queue.requeue() == {"requeued": 0, "dead": 0, "resurrected": 0}
        assert queue.counts()["claimed"] == 2

    def test_expired_lease_requeues_the_straggler(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock)
        queue.fill([bliss_sweep((4,))])
        claim = queue.claim("w1", limit=1, lease_seconds=10.0)
        clock.advance(10.5)
        assert queue.claimable() == 1  # visible as reclaimable before requeue
        assert queue.requeue()["requeued"] == 1
        row = raw_rows(queue, "SELECT state, owner, attempts FROM tasks")[0]
        assert row["state"] == "pending"
        assert row["owner"] is None
        assert row["attempts"] == 1, "a crashed attempt is spent, not refunded"
        # The dead worker's heartbeat no longer matches anything.
        assert queue.heartbeat(claim) == 0

    def test_expired_lease_with_exhausted_budget_is_buried(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock)
        queue.fill([bliss_sweep((4,))], max_attempts=1)
        queue.claim("w1", limit=1, lease_seconds=5.0)
        clock.advance(6.0)
        report = queue.requeue()
        assert report == {"requeued": 0, "dead": 1, "resurrected": 0}
        row = raw_rows(queue, "SELECT state, error FROM tasks")[0]
        assert row["state"] == "dead"
        assert "lease expired" in row["error"]

    def test_release_hands_rows_back_and_refunds_the_attempt(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([bliss_sweep((4, 8))])
        claim = queue.claim("w1", limit=2)
        assert queue.release(claim) == 2
        rows = raw_rows(queue, "SELECT state, attempts FROM tasks")
        assert {row["state"] for row in rows} == {"pending"}
        assert {row["attempts"] for row in rows} == {0}


# ----------------------------------------------------------------------
# retry budget
# ----------------------------------------------------------------------

class TestRetry:
    def test_failed_rows_retry_until_the_budget_buries_them(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([bliss_sweep((4,))], max_attempts=2)
        claim = queue.claim("w1", limit=1)
        address = claim.tasks[0].address
        assert queue.mark_failed(address, "boom #1", owner="w1") == "failed"
        assert queue.requeue()["requeued"] == 1
        claim = queue.claim("w1", limit=1)
        assert claim.tasks[0].attempts == 2
        assert queue.mark_failed(address, "boom #2", owner="w1") == "dead"
        assert queue.counts()["dead"] == 1
        assert queue.claimable() == 0
        assert queue.requeue()["requeued"] == 0

    def test_requeue_can_resurrect_the_dead_with_a_fresh_budget(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([bliss_sweep((4,))], max_attempts=1)
        claim = queue.claim("w1", limit=1)
        queue.mark_failed(claim.tasks[0].address, "boom", owner="w1")
        assert queue.counts()["dead"] == 1
        report = queue.requeue(include_dead=True)
        assert report["resurrected"] == 1
        row = raw_rows(queue, "SELECT state, attempts, error FROM tasks")[0]
        assert (row["state"], row["attempts"], row["error"]) == ("pending", 0, None)

    def test_mark_failed_for_unknown_address_raises(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(QueueError, match="no queue row"):
            queue.mark_failed("feedbeef" * 8, "boom")


# ----------------------------------------------------------------------
# done-writes
# ----------------------------------------------------------------------

class TestDoneWriteback:
    def test_done_write_records_result_and_finishes_the_row(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([bliss_sweep((4,))])
        claim = queue.claim("w1", limit=1)
        address = claim.tasks[0].address
        assert queue.mark_done(address, 1.25, engine="auto", seconds=0.5, owner="w1")
        assert queue.counts()["done"] == 1
        rows = queue.result_rows()
        assert rows[address]["engine"] == "auto"
        assert rows[address]["value"] == "1.25"
        assert rows[address]["seconds"] == 0.5

    def test_duplicate_identical_done_write_is_idempotent(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([bliss_sweep((4,))])
        address = queue.claim("w1", limit=1).tasks[0].address
        assert queue.mark_done(address, {"v": 1.0}, engine="auto") is True
        assert queue.mark_done(address, {"v": 1.0}, engine="auto") is False
        assert len(queue.result_rows()) == 1

    def test_conflicting_done_write_raises_instead_of_overwriting(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([bliss_sweep((4,))])
        address = queue.claim("w1", limit=1).tasks[0].address
        queue.mark_done(address, 1.0, engine="auto")
        with pytest.raises(QueueError, match="conflicting done-write"):
            queue.mark_done(address, 2.0, engine="auto")
        with pytest.raises(QueueError, match="conflicting done-write"):
            queue.mark_done(address, 1.0, engine="exact")
        assert queue.result_rows()[address]["value"] == "1.0"

    def test_straggler_done_write_after_requeue_is_accepted(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock)
        queue.fill([bliss_sweep((4,))])
        slow = queue.claim("slow-worker", limit=1, lease_seconds=5.0)
        address = slow.tasks[0].address
        clock.advance(6.0)
        assert queue.requeue()["requeued"] == 1
        fast = queue.claim("fast-worker", limit=1)
        assert fast.tasks[0].address == address
        # The presumed-dead worker finishes anyway: legal, values are pure.
        assert queue.mark_done(address, 3.5, engine="auto", owner="slow-worker")
        assert queue.counts()["done"] == 1
        # The second claimant's identical write is the no-op duplicate.
        assert queue.mark_done(address, 3.5, engine="auto", owner="fast-worker") is False


# ----------------------------------------------------------------------
# guards: versions, tampering, status
# ----------------------------------------------------------------------

class TestGuards:
    def test_uninitialized_database_is_refused(self, tmp_path):
        queue = WorkQueue(tmp_path / "nothing.sqlite")
        with pytest.raises(QueueError, match="not an initialized work queue"):
            queue.check_version()

    def test_version_skew_is_refused_everywhere(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([bliss_sweep((4,))])
        raw_exec(
            queue,
            "UPDATE queue_meta SET value = '0.0.0+stale' WHERE key = 'version'",
        )
        with pytest.raises(QueueError, match="0.0.0\\+stale"):
            queue.check_version()
        with pytest.raises(QueueError, match="start a fresh queue"):
            run_worker(queue)
        with pytest.raises(QueueError, match="start a fresh queue"):
            collect_queue([bliss_sweep((4,))], queue)
        with pytest.raises(QueueError, match="would not line up"):
            queue.initialize()

    def test_tampered_row_fails_its_address_check(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([bliss_sweep((4,))])
        raw_exec(queue, "UPDATE tasks SET params = '{\"k\": 999}'")
        claim = queue.claim("w1", limit=1)
        with pytest.raises(QueueError, match="does not reproduce its own"):
            claim.tasks[0].unit()

    def test_status_snapshot_reports_workers_and_errors(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([bliss_sweep((4, 8, 16))])
        claim = queue.claim("w1", limit=1)
        queue.mark_failed(claim.tasks[0].address, "injected boom", owner="w1")
        queue.claim("w2", limit=1)
        status = queue.status()
        assert status["total"] == 3
        assert status["states"]["failed"] == 1
        assert status["states"]["claimed"] == 1
        assert [worker["owner"] for worker in status["workers"]] == ["w2"]
        assert status["recent_errors"][0]["error"] == "injected boom"
        assert status["version"] is not None


# ----------------------------------------------------------------------
# collection
# ----------------------------------------------------------------------

class TestCollect:
    def test_collect_refuses_partial_coverage(self, tmp_path):
        queue = make_queue(tmp_path)
        sweep = bliss_sweep((4, 8, 16))
        queue.fill([sweep])
        address = queue.claim("w1", limit=1).tasks[0].address
        queue.mark_done(address, 1.0, engine="auto")
        with pytest.raises(QueueError, match="2 of 3 unique unit task"):
            collect_queue([sweep], queue)

    def test_collect_names_the_first_missing_unit(self, tmp_path):
        queue = make_queue(tmp_path)
        sweep = bliss_sweep((4, 8, 16))
        queue.fill([sweep])
        last = sweep.expand()[-1]
        queue.mark_done(last.address(), 1.0, engine="auto")
        with pytest.raises(QueueError) as caught:
            collect_queue([sweep], queue)
        message = str(caught.value)
        assert "2 of 3 unique unit task(s) have no result row" in message
        assert '(first: unit_anshelevich_bliss_ratio({"k": 4})' in message

    def test_collect_refuses_mixed_engines(self, tmp_path):
        queue = make_queue(tmp_path)
        sweep = bliss_sweep((4, 8))
        queue.fill([sweep])
        first, second = sorted(addresses_of(sweep))
        queue.mark_done(first, 1.0, engine="auto")
        queue.mark_done(second, 2.0, engine="exact")
        with pytest.raises(QueueError, match="mix evaluation engines"):
            collect_queue([sweep], queue)

    def test_collect_names_the_corrupt_result_row(self, tmp_path):
        queue = make_queue(tmp_path)
        sweep = bliss_sweep((4,))
        queue.fill([sweep])
        address = next(iter(addresses_of(sweep)))
        queue.mark_done(address, 1.0, engine="auto")
        raw_exec(queue, "UPDATE results SET value = '{broken'")
        with pytest.raises(QueueError, match=f"corrupt result row for unit {address[:12]}"):
            collect_queue([sweep], queue)

    def test_collect_matches_the_local_run_byte_for_byte(self, tmp_path):
        sweep = bliss_sweep((4, 8, 16, 32))
        oracle_runs, oracle_stats = run_sweeps(
            [sweep], jobs=1, cache=None, backend="serial"
        )
        queue = make_queue(tmp_path)
        queue.fill([sweep])
        stats = run_worker(queue)
        assert stats.done == 4 and stats.failed == 0
        collected_runs, collect_stats, meta = collect_queue([sweep], queue)
        assert encoded_rows(collected_runs) == encoded_rows(oracle_runs)
        assert collect_stats.backend == "queue-collect"
        assert collect_stats.total_units == oracle_stats.total_units
        assert collect_stats.executed == 0
        assert meta["engine"] == "auto"
        assert meta["queue_states"]["done"] == 4

    def test_collect_seeds_the_local_cache_no_recompute_on_rereport(self, tmp_path):
        # Satellite: queue-collected values land in .repro_cache/ through
        # the shared codec, so a later plain run recomputes nothing.
        sweep = bliss_sweep((4, 8, 16))
        queue = make_queue(tmp_path)
        queue.fill([sweep])
        run_worker(queue)  # workers ran cache-less elsewhere
        local_cache = ResultCache(root=tmp_path / "local-cache")
        collected_runs, _, _ = collect_queue([sweep], queue, cache=local_cache)
        rerun_runs, rerun_stats = run_sweeps(
            [sweep], jobs=1, cache=local_cache, backend="serial"
        )
        assert rerun_stats.executed == 0
        assert rerun_stats.cache_hits == rerun_stats.unique_units
        assert encoded_rows(rerun_runs) == encoded_rows(collected_runs)
        # A second collect is idempotent against the now-warm cache.
        again_runs, _, _ = collect_queue([sweep], queue, cache=local_cache)
        assert encoded_rows(again_runs) == encoded_rows(collected_runs)


# ----------------------------------------------------------------------
# the worker loop (in-process)
# ----------------------------------------------------------------------

class TestRunWorker:
    def test_worker_drains_the_queue_and_matches_the_oracle(self, tmp_path):
        sweep = helper_sweep((1, 2, 3, 4, 5))
        oracle_runs, _ = run_sweeps([sweep], jobs=1, cache=None, backend="serial")
        queue = make_queue(tmp_path)
        queue.fill([sweep])
        stats = run_worker(queue, max_claim=2)
        assert stats.done == 5
        assert stats.claims == 3  # ceil(5 / 2) same-task groups
        assert queue.counts()["done"] == 5
        collected_runs, _, _ = collect_queue([sweep], queue)
        assert encoded_rows(collected_runs) == encoded_rows(oracle_runs)
        for k in (1, 2, 3, 4, 5):
            assert any(
                json.loads(row["value"]) == quick_unit(k)
                for row in queue.result_rows().values()
            )

    def test_poisonous_unit_fails_alone_then_dies_alone(self, tmp_path):
        sweep = helper_sweep(
            (1, 2, 3), task="queue_tasks:failing_unit", fixed={"poison": 2}
        )
        queue = make_queue(tmp_path)
        queue.fill([sweep], max_attempts=2)
        stats = run_worker(queue)
        # The group run fails, the per-unit retry isolates k=2, and the
        # loop's own requeue burns its remaining attempt down to dead.
        assert stats.done == 2
        assert stats.failed == 2
        counts = queue.counts()
        assert counts["done"] == 2 and counts["dead"] == 1
        row = raw_rows(
            queue, "SELECT error FROM tasks WHERE state = 'dead'"
        )[0]
        assert "injected failure for k=2" in row["error"]
        with pytest.raises(QueueError, match="1 of 3 unique unit task"):
            collect_queue([sweep], queue)

    def test_interrupted_worker_releases_its_claim(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([helper_sweep((1, 2, 3))])

        def crash_on_claim(claim):
            raise WorkerInterrupted()

        stats = run_worker(queue, on_claim=crash_on_claim)
        assert stats.claims == 1
        assert stats.done == 0
        assert stats.released == 3
        rows = raw_rows(queue, "SELECT state, attempts FROM tasks")
        assert {row["state"] for row in rows} == {"pending"}
        assert {row["attempts"] for row in rows} == {0}, "hand-back refunds"
        # A restarted worker finishes the released rows.
        assert run_worker(queue).done == 3

    def test_preset_stop_event_exits_before_claiming(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.fill([helper_sweep((1, 2))])
        stop = threading.Event()
        stop.set()
        stats = run_worker(queue, stop_event=stop, keep_alive=True)
        assert stats.claims == 0
        assert queue.counts()["pending"] == 2

    def test_worker_recovers_a_crashed_peers_expired_lease(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock)
        sweep = helper_sweep((1, 2, 3, 4))
        queue.fill([sweep])
        # A "crashed" peer: claims two rows and is never heard from again.
        crashed = WorkQueue(queue.path, clock=clock)
        abandoned = crashed.claim("crashed-peer", limit=2, lease_seconds=30.0)
        assert len(abandoned) == 2
        # While the lease is live the survivor must not steal the rows.
        survivor_stats = run_worker(queue)
        assert survivor_stats.done == 2
        assert queue.counts() == {
            "pending": 0, "claimed": 2, "done": 2, "failed": 0, "dead": 0,
        }
        # Lease expiry turns the crash into reclaimable work.
        clock.advance(31.0)
        recovery_stats = run_worker(queue)
        assert recovery_stats.done == 2
        assert queue.counts()["done"] == 4
        collected_runs, _, _ = collect_queue([sweep], queue)
        oracle_runs, _ = run_sweeps([sweep], jobs=1, cache=None, backend="serial")
        assert encoded_rows(collected_runs) == encoded_rows(oracle_runs)

    def test_worker_cache_absorbs_rework_after_a_crash(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock=clock)
        sweep = helper_sweep((1, 2, 3))
        queue.fill([sweep])
        cache = ResultCache(root=tmp_path / "worker-cache")
        # First worker computes everything into the cache but "crashes"
        # before writeback: simulate by claiming + computing via a normal
        # run, then abandoning the claim entirely.
        doomed = queue.claim("doomed", limit=16, lease_seconds=10.0)
        run_sweeps([sweep], jobs=1, cache=cache, backend="serial")
        del doomed  # never released, never marked done
        clock.advance(11.0)
        # The restarted worker re-claims; every unit is a cache hit.
        stats = run_worker(queue, cache=cache)
        assert stats.done == 3
        assert queue.counts()["done"] == 3
