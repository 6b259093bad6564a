"""Engine tests: ordering, dedup, cache integration, and pool parity."""

import pytest

from repro.analysis.experiments import (
    sweep_aux_online_steiner,
    sweep_t1_directed_opt_universal,
)
from repro.runtime.artifacts import cell_to_dict
from repro.runtime.cache import ResultCache
from repro.runtime.executor import run_sweep, run_sweeps, run_units
from repro.runtime.spec import UnitTask

BLISS_TASK = "repro.analysis.experiments:unit_anshelevich_bliss_ratio"


def bliss_unit(k):
    return UnitTask(task=BLISS_TASK, params=(("k", k),))


class TestRunUnits:
    def test_results_preserve_submission_order(self):
        units = [bliss_unit(k) for k in (16, 4, 8)]
        results, stats = run_units(units, jobs=1)
        assert [r.params["k"] for r in results] == [16, 4, 8]
        assert stats.total_units == 3
        assert stats.executed == 3

    def test_duplicates_computed_once(self):
        units = [bliss_unit(4), bliss_unit(8), bliss_unit(4), bliss_unit(4)]
        results, stats = run_units(units, jobs=1)
        assert stats.total_units == 4
        assert stats.unique_units == 2
        assert stats.deduplicated == 2
        assert results[0].value == results[2].value == results[3].value

    def test_cache_roundtrip(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        units = [bliss_unit(k) for k in (4, 8)]
        first, stats_first = run_units(units, jobs=1, cache=cache)
        assert stats_first.executed == 2
        assert stats_first.cache_hits == 0
        second, stats_second = run_units(units, jobs=1, cache=cache)
        assert stats_second.executed == 0
        assert stats_second.cache_hits == 2
        assert stats_second.cache_hit_rate == 1.0
        assert all(r.cached for r in second)
        assert [r.value for r in first] == [r.value for r in second]


class TestSweepExecution:
    def test_cells_match_wrapper_api(self):
        sweep = sweep_aux_online_steiner(levels=(1, 2, 3), samples=6)
        run, stats = run_sweep(sweep, jobs=1)
        assert stats.total_units == 3
        assert len(run.cells) == 1
        values = [point.value for point in run.cells[0].series]
        assert values == sorted(values)

    def test_cross_sweep_deduplication(self):
        # The same sweep twice: the second copy is served by dedup.
        sweep = sweep_aux_online_steiner(levels=(1, 2), samples=4)
        _, stats = run_sweeps([sweep, sweep], jobs=1)
        assert stats.total_units == 4
        assert stats.unique_units == 2


class TestPoolParity:
    @pytest.mark.slow
    def test_serial_and_parallel_rows_identical(self, tmp_path):
        """jobs=1 and jobs=2 produce identical CellResult rows."""
        sweep = sweep_t1_directed_opt_universal(ks=(2, 3), seeds=(0, 1))
        serial_run, serial_stats = run_sweep(sweep, jobs=1)
        parallel_run, parallel_stats = run_sweep(sweep, jobs=2)
        assert serial_stats.executed == parallel_stats.executed == 4
        serial_rows = [cell_to_dict(cell) for cell in serial_run.cells]
        parallel_rows = [cell_to_dict(cell) for cell in parallel_run.cells]
        assert serial_rows == parallel_rows

    @pytest.mark.slow
    def test_all_backends_produce_identical_rows(self, tmp_path):
        """serial, thread, and process backends agree byte-for-byte."""
        import json

        sweep = sweep_t1_directed_opt_universal(ks=(2, 3), seeds=(0, 1))
        encoded = {}
        for backend in ("serial", "thread", "process"):
            run, stats = run_sweep(sweep, jobs=2, backend=backend)
            assert stats.backend == backend
            assert stats.executed == 4
            encoded[backend] = json.dumps(
                [cell_to_dict(cell) for cell in run.cells], sort_keys=True
            )
        assert encoded["thread"] == encoded["process"] == encoded["serial"]

    def test_serial_backend_ignores_jobs(self):
        units = [bliss_unit(k) for k in (4, 8)]
        _, stats = run_units(units, jobs=8, backend="serial")
        assert stats.executed == 2
        assert stats.backend == "serial"

    def test_unknown_backend_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="unknown backend"):
            run_units([bliss_unit(4)], backend="gpu")

    def test_thread_backend_shares_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        units = [bliss_unit(k) for k in (4, 8, 16)]
        _, warm = run_units(units, jobs=2, cache=cache, backend="thread")
        assert warm.executed == 3
        _, cold = run_units(units, jobs=1, cache=cache)
        assert cold.cache_hits == 3

    def test_worker_guard_error_reaches_caller(self):
        """A unit that raises ``ExplosionError`` in a process worker
        surfaces as that error, fields intact, not as a broken pool."""
        from repro import ExplosionError

        units = [
            UnitTask(task="queue_tasks:exploding_unit", params=(("k", k),))
            for k in (1, 2)
        ]
        with pytest.raises(ExplosionError) as caught:
            run_units(units, jobs=2, backend="process")
        error = caught.value
        assert (error.what, error.limit) == ("strategy profiles", 1)
        assert error.size in (8, 16)
        assert str(error) == str(ExplosionError(error.what, error.size, error.limit))

    def test_executed_units_record_timings(self):
        results, stats = run_units([bliss_unit(4)], jobs=1)
        assert all(result.seconds >= 0.0 for result in results)
        assert stats.executed_seconds >= 0.0
        assert "backend=process" in stats.describe()

    def test_engine_pin_addresses_cache_separately(self, tmp_path):
        """An engine_override rides into workers and the cache key, so
        reference- and tensor-engine values never alias."""
        from repro.core import engine_override

        cache = ResultCache(root=tmp_path / "cache")
        units = [bliss_unit(4)]
        with engine_override("reference"):
            _, pinned = run_units(units, jobs=2, cache=cache, backend="thread")
        assert pinned.executed == 1
        _, crossed = run_units(units, jobs=1, cache=cache)
        assert crossed.cache_hits == 0  # different engine, different key
        assert crossed.executed == 1
        _, warm = run_units(units, jobs=1, cache=cache)
        assert warm.cache_hits == 1

    @pytest.mark.slow
    def test_parallel_populates_cache_for_serial(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        sweep = sweep_aux_online_steiner(levels=(1, 2), samples=4)
        _, warm = run_sweep(sweep, jobs=2, cache=cache)
        assert warm.executed == 2
        _, cold = run_sweep(sweep, jobs=1, cache=cache)
        assert cold.cache_hits == 2
        assert cold.executed == 0
