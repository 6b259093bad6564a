"""Shard scheduler tests: plan determinism, cost balancing, and the
two-machine merge-parity contract (sharded == unsharded, byte for byte)."""

import json

import pytest

from repro.analysis.experiments import (
    sweep_aux_online_steiner,
    sweep_t1_directed_opt_universal,
)
from repro.runtime.artifacts import ArtifactStore, cell_to_dict
from repro.runtime.cache import ResultCache
from repro.runtime.cli import main
from repro.runtime.executor import _chunksize, run_sweeps, run_units
from repro.runtime.shard import (
    CostModel,
    ShardMergeError,
    merge_shards,
    plan_shards,
    run_shard,
)
from repro.runtime.spec import UnitTask

BLISS_TASK = "repro.analysis.experiments:unit_anshelevich_bliss_ratio"


def small_sweep():
    return sweep_aux_online_steiner(levels=(1, 2, 3), samples=4)


def encoded_cells(sweep_runs):
    return json.dumps(
        [cell_to_dict(cell) for run in sweep_runs for cell in run.cells],
        sort_keys=True,
    )


class TestPlan:
    def test_plan_is_deterministic(self):
        first = plan_shards([small_sweep()], 2)
        second = plan_shards([small_sweep()], 2)
        assert first.plan_hash() == second.plan_hash()
        assert [
            [unit.address() for unit in shard] for shard in first.shards
        ] == [[unit.address() for unit in shard] for shard in second.shards]

    def test_partition_covers_every_unit_exactly_once(self):
        sweep = small_sweep()
        plan = plan_shards([sweep], 2)
        assigned = [u.address() for shard in plan.shards for u in shard]
        expected = {unit.address() for unit in sweep.expand()}
        assert len(assigned) == len(set(assigned))  # disjoint
        assert set(assigned) == expected            # complete

    def test_shard_count_changes_the_hash(self):
        sweep = small_sweep()
        assert (
            plan_shards([sweep], 2).plan_hash()
            != plan_shards([sweep], 3).plan_hash()
        )

    def test_uniform_cold_start_balances_counts(self):
        plan = plan_shards([small_sweep()], 2)
        sizes = sorted(len(shard) for shard in plan.shards)
        assert sizes == [1, 2]
        assert plan.cost_source is None

    def test_more_shards_than_units_leaves_empties(self):
        plan = plan_shards([small_sweep()], 5)
        assert plan.total_units == 3
        assert sum(1 for shard in plan.shards if not shard) == 2

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            plan_shards([small_sweep()], 0)

    def test_timings_drive_the_partition(self):
        """A unit measured 10x heavier than the rest gets a shard alone."""
        sweep = small_sweep()
        units = sweep.expand()
        heavy = units[0]
        model = CostModel(
            measured={CostModel.params_digest(heavy.kwargs): 10.0},
            default_seconds=1.0,
            source="test",
        )
        plan = plan_shards([sweep], 2, cost_model=model)
        heavy_shard = next(
            shard for shard in plan.shards
            if any(u.address() == heavy.address() for u in shard)
        )
        assert len(heavy_shard) == 1
        assert sorted(plan.loads()) == [2.0, 10.0]
        assert plan.cost_source == "test"

    def test_dedup_spans_sweeps(self):
        sweep = small_sweep()
        plan = plan_shards([sweep, sweep], 2)
        assert plan.total_units == 3


class TestCostModel:
    def test_cached_and_zero_rows_carry_no_signal(self):
        model = CostModel.from_unit_timings(
            {
                "S": [
                    {"params": {"k": 2}, "seconds": 4.0, "cached": False},
                    {"params": {"k": 3}, "seconds": 0.0, "cached": True},
                    {"params": {"k": 4}, "seconds": 0.0, "cached": False},
                ]
            }
        )
        assert len(model) == 1
        assert model.estimate(UnitTask(task=BLISS_TASK, params=(("k", 2),))) == 4.0

    def test_unknown_units_fall_back_to_median(self):
        model = CostModel.from_unit_timings(
            {
                "S": [
                    {"params": {"k": 2}, "seconds": 1.0, "cached": False},
                    {"params": {"k": 3}, "seconds": 3.0, "cached": False},
                    {"params": {"k": 4}, "seconds": 100.0, "cached": False},
                ]
            }
        )
        assert model.estimate(UnitTask(task=BLISS_TASK, params=(("k", 99),))) == 3.0

    def test_empty_timings_are_uniform(self):
        model = CostModel.from_unit_timings({})
        assert len(model) == 0
        assert model.estimate(UnitTask(task=BLISS_TASK, params=(("k", 2),))) == 1.0

    def test_tasks_with_shared_params_do_not_collide(self):
        """Two different tasks swept over the same kwargs must keep
        their own measured costs (the Anshelevich pair in the real
        suite shares its ``k`` grid)."""
        other_task = "repro.analysis.experiments:unit_anshelevich_ratio"
        model = CostModel.from_unit_timings(
            {
                "A": [{"task": BLISS_TASK, "params": {"k": 4},
                       "seconds": 2.0, "cached": False}],
                "B": [{"task": other_task, "params": {"k": 4},
                       "seconds": 40.0, "cached": False}],
            }
        )
        assert model.estimate(UnitTask(task=BLISS_TASK, params=(("k", 4),))) == 2.0
        assert model.estimate(UnitTask(task=other_task, params=(("k", 4),))) == 40.0

    def test_taskless_legacy_rows_match_as_fallback(self):
        model = CostModel.from_unit_timings(
            {"S": [{"params": {"k": 4}, "seconds": 7.0, "cached": False}]}
        )
        assert model.estimate(UnitTask(task=BLISS_TASK, params=(("k", 4),))) == 7.0

    def test_from_meta_json(self, tmp_path):
        meta = tmp_path / "meta.json"
        meta.write_text(
            json.dumps(
                {
                    "unit_timings": {
                        "S": [{"params": {"k": 2}, "seconds": 2.5, "cached": False}]
                    }
                }
            )
        )
        model = CostModel.from_meta_json(meta)
        assert len(model) == 1
        assert model.source == str(meta)


class TestMergeParity:
    """The acceptance criterion: shards on separate caches merge to rows
    byte-identical to the unsharded sweep."""

    def _shard_and_merge(self, sweep, tmp_path, backend, jobs, n_shards=2):
        manifests = []
        for k in range(n_shards):
            # Each "machine" gets its own cold cache; they share nothing.
            cache = ResultCache(root=tmp_path / f"machine{k}" / "cache")
            shard_run = run_shard(
                [sweep], k, n_shards, jobs=jobs, cache=cache, backend=backend
            )
            manifests.append(shard_run.manifest())
        return merge_shards([sweep], manifests)

    def test_two_machine_merge_matches_unsharded(self, tmp_path):
        sweep = sweep_t1_directed_opt_universal(ks=(2, 3), seeds=(0, 1))
        baseline_runs, _ = run_sweeps([sweep], jobs=1)
        merged_runs, stats, meta = self._shard_and_merge(
            sweep, tmp_path, backend="serial", jobs=1
        )
        assert encoded_cells(merged_runs) == encoded_cells(baseline_runs)
        assert stats.executed == 0
        assert stats.unique_units == 4
        assert len(meta["plan_hashes"]) == 1

    def test_thread_backend_shards_merge_identically(self, tmp_path):
        sweep = sweep_t1_directed_opt_universal(ks=(2, 3), seeds=(0, 1))
        baseline_runs, _ = run_sweeps([sweep], jobs=1)
        merged_runs, _, _ = self._shard_and_merge(
            sweep, tmp_path, backend="thread", jobs=2
        )
        assert encoded_cells(merged_runs) == encoded_cells(baseline_runs)

    def test_missing_shard_fails_loudly(self, tmp_path):
        sweep = small_sweep()
        cache = ResultCache(root=tmp_path / "cache")
        only = run_shard([sweep], 0, 2, jobs=1, cache=cache, backend="serial")
        with pytest.raises(ShardMergeError, match="missing"):
            merge_shards([sweep], [only.manifest()])

    def test_mixed_engines_rejected(self, tmp_path):
        sweep = small_sweep()
        manifests = []
        for k in range(2):
            cache = ResultCache(root=tmp_path / f"m{k}")
            manifests.append(
                run_shard([sweep], k, 2, cache=cache, backend="serial").manifest()
            )
        manifests[1]["engine"] = "reference"
        with pytest.raises(ShardMergeError, match="mix"):
            merge_shards([sweep], manifests)

    def test_stale_version_rejected(self, tmp_path):
        sweep = small_sweep()
        cache = ResultCache(root=tmp_path / "cache")
        manifest = run_shard(
            [sweep], 0, 1, cache=cache, backend="serial"
        ).manifest()
        manifest["version"] = "0.0.0"
        with pytest.raises(ShardMergeError, match="version"):
            merge_shards([sweep], [manifest])

    def test_no_manifests_rejected(self):
        with pytest.raises(ShardMergeError, match="no shard manifests"):
            merge_shards([small_sweep()], [])

    def test_rerun_resumes_from_cache(self, tmp_path):
        sweep = small_sweep()
        cache = ResultCache(root=tmp_path / "cache")
        cold = run_shard([sweep], 0, 2, cache=cache, backend="serial")
        warm = run_shard([sweep], 0, 2, cache=cache, backend="serial")
        assert cold.stats.executed == len(cold.results)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == cold.stats.unique_units
        assert [r.value for r in warm.results] == [r.value for r in cold.results]

    def test_stale_manifests_from_an_earlier_split_are_ignored(self, tmp_path):
        """Re-splitting with different overrides must not require
        hand-cleaning results/<name>/shards/."""
        old_sweep = sweep_aux_online_steiner(levels=(1, 2), samples=4)
        new_sweep = small_sweep()
        manifests = [
            run_shard(
                [old_sweep], 0, 1,
                cache=ResultCache(root=tmp_path / "old"), backend="serial",
            ).manifest()
        ]
        for k in range(2):
            manifests.append(
                run_shard(
                    [new_sweep], k, 2,
                    cache=ResultCache(root=tmp_path / f"new{k}"),
                    backend="serial",
                ).manifest()
            )
        baseline_runs, _ = run_sweeps([new_sweep], jobs=1)
        merged_runs, _, meta = merge_shards([new_sweep], manifests)
        assert meta["ignored_manifests"] == 1
        assert meta["manifests"] == 2
        assert encoded_cells(merged_runs) == encoded_cells(baseline_runs)

    def test_only_stale_manifests_rejected(self, tmp_path):
        old_sweep = sweep_aux_online_steiner(levels=(1, 2), samples=4)
        manifest = run_shard(
            [old_sweep], 0, 1,
            cache=ResultCache(root=tmp_path / "old"), backend="serial",
        ).manifest()
        with pytest.raises(ShardMergeError, match="different .*spec"):
            merge_shards([small_sweep()], [manifest])

    def test_corrupt_manifest_raises_a_named_error(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "results")
        sweep = small_sweep()
        shard_run = run_shard(
            [sweep], 0, 1,
            cache=ResultCache(root=tmp_path / "cache"), backend="serial",
        )
        store.write_shard_manifest("AUX", shard_run.manifest())
        bad = store.shard_dir("AUX") / "shard-2-of-2.json"
        bad.write_text("{ truncated", encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt shard manifest"):
            store.load_shard_manifests("AUX")
        # Valid JSON of the wrong shape: not an object, or a unit entry
        # without its value.  The merge names the manifest, no traceback.
        valueless = shard_run.manifest()
        del valueless["units"][0]["value"]
        for shape in ([valueless], valueless):
            bad.write_text(json.dumps(shape), encoding="utf-8")
            manifests = store.load_shard_manifests("AUX")
            with pytest.raises(ShardMergeError, match="shard manifest 2 of 2"):
                merge_shards([sweep], manifests)

    def test_manifests_roundtrip_through_the_store(self, tmp_path):
        sweep = small_sweep()
        baseline_runs, _ = run_sweeps([sweep], jobs=1)
        store = ArtifactStore(root=tmp_path / "results")
        for k in range(2):
            cache = ResultCache(root=tmp_path / f"m{k}")
            shard_run = run_shard([sweep], k, 2, cache=cache, backend="serial")
            path = store.write_shard_manifest("AUX", shard_run.manifest())
            assert path.name == f"shard-{k + 1}-of-2.json"
        manifests = store.load_shard_manifests("AUX")
        assert len(manifests) == 2
        merged_runs, _, _ = merge_shards([sweep], manifests)
        assert encoded_cells(merged_runs) == encoded_cells(baseline_runs)


class TestAdaptiveChunking:
    @pytest.mark.slow
    def test_cost_model_never_changes_rows(self):
        sweep = small_sweep()
        uniform_runs, _ = run_sweeps([sweep], jobs=2)
        model = CostModel.from_unit_timings(
            {"AUX-3.5": [{"params": {"level": 1, "samples": 4}, "seconds": 9.0}]}
        )
        adaptive_runs, _ = run_sweeps([sweep], jobs=2, cost_model=model)
        assert encoded_cells(adaptive_runs) == encoded_cells(uniform_runs)

    def test_longest_first_dispatch_keeps_submission_order(self):
        units = [
            UnitTask(task=BLISS_TASK, params=(("k", k),)) for k in (16, 4, 8)
        ]
        model = CostModel(
            measured={
                CostModel.params_digest({"k": 4}): 9.0,
                CostModel.params_digest({"k": 8}): 1.0,
                CostModel.params_digest({"k": 16}): 2.0,
            }
        )
        results, _ = run_units(units, jobs=2, backend="thread", cost_model=model)
        assert [r.params["k"] for r in results] == [16, 4, 8]

    def test_chunksize_adapts_to_cost_spread(self):
        uniform = _chunksize(64, 2, costs=[1.0] * 64)
        default = _chunksize(64, 2)
        skewed = _chunksize(64, 2, costs=[100.0] + [0.01] * 63)
        assert uniform > default > skewed
        assert skewed >= 1

    def test_chunksize_handles_degenerate_costs(self):
        assert _chunksize(8, 2, costs=[0.0] * 8) == _chunksize(8, 2)
        assert _chunksize(1, 4, costs=None) == 1


class TestShardCLI:
    @pytest.fixture
    def sandbox(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return tmp_path

    SET = ["--set", "level=1,2"]

    def test_plan_prints_partition(self, sandbox, capsys):
        assert main(["shard", "plan", "AUX-3.5", "-n", "2"] + self.SET) == 0
        out = capsys.readouterr().out
        assert "2 unit task(s) across 2 shard(s)" in out
        assert "shard 1/2" in out and "shard 2/2" in out

    def test_plan_json(self, sandbox, capsys):
        assert main(
            ["shard", "plan", "AUX-3.5", "-n", "2", "--json"] + self.SET
        ) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["n_shards"] == 2
        assert plan["total_units"] == 2
        assert len(plan["shards"]) == 2

    def test_full_cycle_matches_unsharded(self, sandbox, capsys):
        # Two "machines": separate caches, shared results dir (the
        # manifest copy step of the two-machine walkthrough).
        assert main(
            ["sweep", "AUX-3.5", "--shard", "1/2", "--cache-dir", "cacheA"]
            + self.SET
        ) == 0
        assert main(
            ["shard", "run", "AUX-3.5", "--shard", "2/2", "--cache-dir", "cacheB"]
            + self.SET
        ) == 0
        assert main(["shard", "merge", "AUX-3.5"] + self.SET) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard manifest(s)" in out
        assert "all 1 cells PASS" in out
        merged = json.loads(
            (sandbox / "results" / "AUX-3.5" / "cells.json").read_text()
        )

        assert main(
            ["sweep", "AUX-3.5", "--no-cache", "--results-dir", "unsharded"]
            + self.SET
        ) == 0
        unsharded = json.loads(
            (sandbox / "unsharded" / "AUX-3.5" / "cells.json").read_text()
        )
        assert merged == unsharded

    def test_merge_records_meta(self, sandbox, capsys):
        for k in ("1/2", "2/2"):
            assert main(
                ["shard", "run", "AUX-3.5", "--shard", k] + self.SET
            ) == 0
        assert main(["shard", "merge", "AUX-3.5"] + self.SET) == 0
        meta = json.loads(
            (sandbox / "results" / "AUX-3.5" / "meta.json").read_text()
        )
        assert meta["shard_merge"]["manifests"] == 2
        assert meta["shard_merge"]["shards"] == ["1/2", "2/2"]
        assert meta["stats"]["backend"] == "shard-merge"

    def test_merge_without_manifests_exits_2(self, sandbox, capsys):
        assert main(["shard", "merge", "AUX-3.5"] + self.SET) == 2
        assert "no shard manifests" in capsys.readouterr().err

    def test_incomplete_merge_exits_2(self, sandbox, capsys):
        assert main(
            ["shard", "run", "AUX-3.5", "--shard", "1/2"] + self.SET
        ) == 0
        assert main(["shard", "merge", "AUX-3.5"] + self.SET) == 2
        assert "missing" in capsys.readouterr().err

    def test_malformed_manifest_merge_exits_2(self, sandbox, capsys):
        assert main(
            ["shard", "run", "AUX-3.5", "--shard", "1/2"] + self.SET
        ) == 0
        shards = sandbox / "results" / "AUX-3.5" / "shards"
        (shards / "shard-2-of-2.json").write_text("[]", encoding="utf-8")
        assert main(["shard", "merge", "AUX-3.5"] + self.SET) == 2
        assert "shard merge failed" in capsys.readouterr().err

    def test_bad_shard_spec_is_a_usage_error(self, sandbox):
        # main() folds argparse's SystemExit into a plain exit code.
        for bad in ("3/2", "0/2", "x/y", "2"):
            assert main(["sweep", "AUX-3.5", "--shard", bad]) == 2

    def test_unknown_id_exits_2(self, sandbox, capsys):
        assert main(["shard", "plan", "NOPE", "-n", "2"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_shard_run_with_timings(self, sandbox, capsys):
        # A prior unsharded run leaves meta.json; feeding it back via
        # --timings must keep the cycle green (values are cached too).
        assert main(["sweep", "AUX-3.5"] + self.SET) == 0
        timings = str(sandbox / "results" / "AUX-3.5" / "meta.json")
        for k in ("1/2", "2/2"):
            assert main(
                ["shard", "run", "AUX-3.5", "--shard", k, "--timings", timings]
                + self.SET
            ) == 0
        assert main(["shard", "merge", "AUX-3.5"] + self.SET) == 0
        out = capsys.readouterr().out
        assert "all 1 cells PASS" in out


class TestCacheMergeCLI:
    @pytest.fixture
    def sandbox(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_cache_merge_imports_missing_entries(self, sandbox, capsys):
        assert main(
            ["sweep", "AUX-3.5", "--set", "level=1,2", "--cache-dir", "src"]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "merge", "--from", "src", "--cache-dir", "dst"]) == 0
        assert "imported 2 entries" in capsys.readouterr().out
        # Second import: everything already present.
        assert main(["cache", "merge", "--from", "src", "--cache-dir", "dst"]) == 0
        assert "imported 0 entries" in capsys.readouterr().out

    def test_cache_merge_requires_source(self, sandbox, capsys):
        assert main(["cache", "merge"]) == 2
        assert "--from" in capsys.readouterr().err

    def test_from_flag_rejected_elsewhere(self, sandbox, capsys):
        assert main(["cache", "stats", "--from", "x"]) == 2
        assert "only applies to 'cache merge'" in capsys.readouterr().err
