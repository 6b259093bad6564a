"""Batched unit tasks through ``run_units``: grouping, parity, caching.

A task with a registered batch runner must produce exactly the values
per-unit execution produces — the runner's results are cached under the
*unit* task's address, so anything weaker poisons the cache — across
every backend, with dedup, caching, and non-batchable tasks unaffected.
"""

import pytest

from repro.analysis import census
from repro.analysis.census import batch_census_members, unit_census_member
from repro.runtime.cache import ResultCache
from repro.runtime.executor import (
    _execute_batch,
    batch_runner_for,
    register_batch_runner,
    run_units,
)
from repro.runtime.spec import UnitTask

CENSUS_TASK = "repro.analysis.census:unit_census_member"
BLISS_TASK = "repro.analysis.experiments:unit_anshelevich_bliss_ratio"

MEASURES = "eq_c,opt_c,opt_p,ratio,ignorance_report"


def census_unit(member, measures=MEASURES):
    """One member of the tabular census cell (2 agents, types, actions
    and support states): every member shares one SoA bucket."""
    return UnitTask(
        task=CENSUS_TASK,
        params=(
            ("actions", 2),
            ("agents", 2),
            ("measures", measures),
            ("member", member),
            ("source", "tabular"),
            ("states", 2),
            ("types", 2),
        ),
    )


def expected_values(units):
    return [unit_census_member(**unit.kwargs) for unit in units]


class TestRegistry:
    def test_census_registers_its_runner_on_import(self):
        assert (
            batch_runner_for(CENSUS_TASK)
            == "repro.analysis.census:batch_census_members"
        )

    def test_unregistered_tasks_have_no_runner(self):
        assert batch_runner_for(BLISS_TASK) is None

    def test_unresolvable_module_has_no_runner(self):
        assert batch_runner_for("repro.no_such_module:unit") is None

    def test_register_is_idempotent_per_task(self):
        register_batch_runner("tests.fake:unit", "tests.fake:batch")
        register_batch_runner("tests.fake:unit", "tests.fake:batch2")
        assert batch_runner_for("tests.fake:unit") == "tests.fake:batch2"


class TestBatchedRunUnits:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_all_backends_match_per_unit_values(self, backend):
        units = [census_unit(member) for member in range(9)]
        results, stats = run_units(units, jobs=3, backend=backend)
        assert [r.value for r in results] == expected_values(units)
        assert stats.executed == 9

    def test_duplicates_still_deduplicate(self):
        units = [census_unit(0), census_unit(1), census_unit(0), census_unit(1)]
        results, stats = run_units(units, jobs=1)
        assert stats.unique_units == 2
        assert stats.deduplicated == 2
        assert results[0].value == results[2].value

    def test_cache_roundtrip_and_interop_with_per_unit_entries(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        units = [census_unit(member) for member in range(4)]
        # Seed one unit's cache entry through the normal (non-batch)
        # path: batch execution must address the same cache slots.
        seeded, _ = run_units(units[:1], jobs=1, cache=cache)
        first, stats_first = run_units(units, jobs=1, cache=cache)
        assert stats_first.cache_hits == 1
        assert stats_first.executed == 3
        second, stats_second = run_units(units, jobs=1, cache=cache)
        assert stats_second.executed == 0
        assert stats_second.cache_hits == 4
        assert [r.value for r in first] == [r.value for r in second]
        assert seeded[0].value == first[0].value

    def test_mixed_batchable_and_plain_tasks(self):
        bliss = UnitTask(task=BLISS_TASK, params=(("k", 4),))
        units = [census_unit(0), bliss, census_unit(1)]
        results, stats = run_units(units, jobs=2, backend="thread")
        assert stats.executed == 3
        assert results[0].value == unit_census_member(**units[0].kwargs)
        assert results[2].value == unit_census_member(**units[2].kwargs)
        assert results[1].value == run_units([bliss], jobs=1)[0][0].value

    def test_mixed_measure_bundles_group_correctly(self):
        units = [
            census_unit(0),
            census_unit(0, measures="opt_c"),
            census_unit(1, measures="opt_c"),
            census_unit(1),
        ]
        results, _ = run_units(units, jobs=2)
        assert [r.value for r in results] == expected_values(units)

    def test_timings_are_attributed_to_every_unit(self):
        units = [census_unit(member) for member in range(4)]
        results, stats = run_units(units, jobs=1)
        assert all(r.seconds >= 0.0 for r in results)
        assert stats.executed_seconds >= 0.0


class TestBatchJobContract:
    def test_runner_row_count_mismatch_is_an_error(self):
        """A runner that loses rows must fail loudly, never misalign."""
        rows = [dict(census_unit(member).kwargs) for member in range(3)]

        def lossy(batch_rows):
            return batch_census_members(batch_rows)[:-1]

        census.lossy_runner_for_test = lossy
        try:
            with pytest.raises(RuntimeError, match="2 values for 3 unit"):
                _execute_batch(
                    (
                        "repro.analysis.census:lossy_runner_for_test",
                        rows,
                        "auto",
                    )
                )
        finally:
            del census.lossy_runner_for_test
