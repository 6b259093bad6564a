"""CLI smoke tests: list/run/sweep/cache, exit codes, artifacts."""

import json
import os
import subprocess
import sys

import pytest

from repro.runtime.cli import main, parse_set_option


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    """Run the CLI from an empty cwd so default dirs stay isolated."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestParseSetOption:
    def test_comma_list(self):
        assert parse_set_option("k=2,3,4") == {"k": [2, 3, 4]}

    def test_range(self):
        assert parse_set_option("seed=0..3") == {"seed": [0, 1, 2, 3]}

    def test_mixed_types(self):
        assert parse_set_option("regime=high,low") == {"regime": ["high", "low"]}
        assert parse_set_option("flag=true") == {"flag": [True]}

    def test_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_set_option("novalue")


class TestList:
    def test_lists_all_experiment_ids(self, sandbox, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for sweep_id in ("T1-D-opt-U", "FIG1", "FIG2", "SEC4", "AUX-3.5"):
            assert sweep_id in out

    def test_verbose_shows_scenarios(self, sandbox, capsys):
        assert main(["list", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "unit_ncs_report" in out
        assert "T1-D-beq-E-upper" in out


class TestRun:
    def test_unknown_id_exits_2(self, sandbox, capsys):
        assert main(["run", "NOPE"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_writes_artifacts_and_caches(self, sandbox, capsys):
        args = ["sweep", "FIG1", "--jobs", "1", "--set", "k=4,8,16,32"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "| FIG1 |" in out
        assert "PASS" in out

        run_dir = sandbox / "results" / "FIG1"
        cells = json.loads((run_dir / "cells.json").read_text())
        assert [cell["experiment_id"] for cell in cells] == ["FIG1"]
        assert cells[0]["passed"] is True
        assert (run_dir / "cells.csv").is_file()
        assert (run_dir / "summary.md").is_file()
        meta = json.loads((run_dir / "meta.json").read_text())
        assert meta["stats"]["executed"] > 0

        # Second run: served (almost) entirely from the cache.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "hit rate 100%" in out

    def test_no_cache_leaves_no_cache_dir(self, sandbox, capsys):
        args = [
            "sweep", "AUX-3.5", "--jobs", "1", "--no-cache",
            "--set", "level=1,2",
        ]
        assert main(args) == 0
        assert not (sandbox / ".repro_cache").exists()

    def test_clear_cache_flag(self, sandbox, capsys):
        args = ["sweep", "AUX-3.5", "--jobs", "1", "--set", "level=1,2"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["sweep", "AUX-3.5", "--jobs", "1", "--set", "level=1,2",
                     "--clear-cache"]) == 0
        out = capsys.readouterr().out
        assert "cleared" in out
        assert "hit rate 0%" in out


class TestCacheCommand:
    def test_stats_and_clear(self, sandbox, capsys):
        assert main(["sweep", "AUX-3.5", "--jobs", "1", "--set", "level=1,2"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries: 2" in out
        assert main(["cache", "clear"]) == 0
        assert "cleared 2" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_prune_requires_a_bound(self, sandbox, capsys):
        assert main(["cache", "prune"]) == 2
        assert "--max-size-mb" in capsys.readouterr().err

    def test_prune_flags_rejected_on_other_actions(self, sandbox, capsys):
        """`cache clear --max-age-days 30` must not silently wipe it all."""
        assert main(["cache", "clear", "--max-age-days", "30"]) == 2
        assert "only apply to 'cache prune'" in capsys.readouterr().err
        assert main(["cache", "stats", "--max-size-mb", "64"]) == 2
        assert "only apply to 'cache prune'" in capsys.readouterr().err

    def test_prune_by_size(self, sandbox, capsys):
        assert main(["sweep", "AUX-3.5", "--jobs", "1", "--set", "level=1,2"]) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--max-size-mb", "0"]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 entries" in out
        assert main(["cache", "stats"]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_prune_by_age_keeps_fresh_entries(self, sandbox, capsys):
        assert main(["sweep", "AUX-3.5", "--jobs", "1", "--set", "level=1,2"]) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--max-age-days", "30"]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries: 2" in capsys.readouterr().out


class TestBackendFlag:
    def test_thread_backend_smoke(self, sandbox, capsys):
        args = [
            "sweep", "AUX-3.5", "--jobs", "2", "--backend", "thread",
            "--no-cache", "--no-artifacts", "--set", "level=1,2",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "backend=thread" in out
        assert "PASS" in out

    def test_meta_records_backend_and_unit_timings(self, sandbox, capsys):
        args = [
            "sweep", "AUX-3.5", "--jobs", "1", "--backend", "serial",
            "--no-cache", "--set", "level=1,2",
        ]
        assert main(args) == 0
        capsys.readouterr()
        meta = json.loads(
            (sandbox / "results" / "AUX-3.5" / "meta.json").read_text()
        )
        assert meta["stats"]["backend"] == "serial"
        timings = meta["unit_timings"]["AUX-3.5"]
        assert len(timings) == 2
        for row in timings:
            assert set(row) == {"task", "params", "seconds", "cached"}
            assert row["task"].endswith(":unit_online_steiner")
            assert row["seconds"] >= 0.0
            assert row["cached"] is False


class TestShardedReport:
    """`report --shard K/N` + `shard merge report` == unsharded `report`."""

    @pytest.fixture
    def tiny_suite(self, monkeypatch):
        """Shrink the default suite so the full-report cycle stays fast."""
        from repro.analysis import experiments

        tiny = {
            sweep.sweep_id: sweep
            for sweep in (
                experiments.sweep_fig1(ks=(4, 8, 16, 32), exact_k=4),
                experiments.sweep_aux_online_steiner(levels=(1, 2), samples=4),
            )
        }
        monkeypatch.setattr(experiments, "SWEEPS", tiny)
        return tiny

    def test_report_accepts_shard_and_merge_completes_it(
        self, sandbox, capsys, tiny_suite
    ):
        # Unsharded baseline, into a separate results dir.
        assert main(["report", "--jobs", "1", "--results-dir", "base"]) == 0
        capsys.readouterr()

        # Both shards, then the merge, into the default results dir.
        assert main(["report", "--jobs", "1", "--shard", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "shard 1/2" in out
        assert (sandbox / "results" / "report" / "shards").is_dir()
        assert main(["report", "--jobs", "1", "--shard", "2/2"]) == 0
        capsys.readouterr()
        assert main(["shard", "merge", "report"]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard manifest(s)" in out
        assert "PASS" in out

        # The merged data artifacts are byte-identical to the unsharded
        # ones (summary.md embeds a timestamp and run stats by design).
        for name in ("cells.json", "cells.csv"):
            merged = (sandbox / "results" / "report" / name).read_bytes()
            unsharded = (sandbox / "base" / "report" / name).read_bytes()
            assert merged == unsharded, name

    def test_report_shard_honors_set_overrides(self, sandbox, capsys, tiny_suite):
        """Overridden grids shard and merge under matching spec hashes."""
        override = ["--set", "k=4,8,16,32,64"]
        assert main(["report", "--jobs", "1", "--shard", "1/2", *override]) == 0
        assert main(["report", "--jobs", "1", "--shard", "2/2", *override]) == 0
        capsys.readouterr()
        assert main(["shard", "merge", "report", *override]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard manifest(s)" in out

    def test_report_token_resolves_full_suite(self, tiny_suite):
        from repro.analysis import registry

        sweeps = registry.resolve_sweeps(["report"])
        assert [sweep.sweep_id for sweep in sweeps] == list(tiny_suite)


class TestVersionAndExitCodes:
    def test_version_flag_prints_version_and_returns_0(self, capsys):
        from repro import __version__

        assert main(["--version"]) == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_no_command_returns_2(self, capsys):
        assert main([]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_subcommand_returns_2(self, capsys):
        assert main(["bogus"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_nested_subcommands_return_2(self, capsys):
        assert main(["shard", "bogus"]) == 2
        assert main(["cache", "bogus"]) == 2
        capsys.readouterr()

    def test_help_returns_0(self, capsys):
        assert main(["--help"]) == 0
        assert "serve" in capsys.readouterr().out

    def test_failing_claim_returns_1(self, sandbox, capsys):
        # One grid point cannot establish the claimed slope: exit 1.
        args = [
            "sweep", "T1-D-weq-E", "--set", "k=8", "--no-cache",
            "--no-artifacts", "--jobs", "1",
        ]
        assert main(args) == 1
        assert "FAILED claims" in capsys.readouterr().err

    def test_version_subprocess_exit_code(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("repro ")
        bogus = subprocess.run(
            [sys.executable, "-m", "repro", "bogus"],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
        )
        assert bogus.returncode == 2


class TestEntryPoint:
    def test_python_dash_m_repro(self, tmp_path):
        """The real ``python -m repro`` entry point is wired up."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "FIG1" in proc.stdout
