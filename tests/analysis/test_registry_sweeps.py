"""Spec-backed registry resolution and sweep-narrowing regressions."""

import pytest

from repro.analysis import registry
from repro.analysis.experiments import sweep_t1_directed_worsteq_existential
from repro.runtime.executor import run_sweep, sweep_cells


class TestResolveSweeps:
    def test_exact_id_verbatim_from_list(self):
        # Ids are mixed-case; copying one verbatim must resolve it.
        sweeps = registry.resolve_sweeps(["T1-D-opt-U"])
        assert [s.sweep_id for s in sweeps] == ["T1-D-opt-U"]

    def test_case_insensitive(self):
        assert [s.sweep_id for s in registry.resolve_sweeps(["fig1"])] == ["FIG1"]
        assert [s.sweep_id for s in registry.resolve_sweeps(["t1-d-opt-u"])] == [
            "T1-D-opt-U"
        ]

    def test_prefix_selects_in_reporting_order(self):
        ids = [s.sweep_id for s in registry.resolve_sweeps(["T1-D"])]
        assert ids == [
            "T1-D-opt-U", "T1-D-opt-E", "T1-D-beq-U",
            "T1-D-beq-E", "T1-D-weq-U", "T1-D-weq-E",
        ]

    def test_unknown_token_raises(self):
        with pytest.raises(KeyError):
            registry.resolve_sweeps(["NOPE"])

    def test_run_accepts_spec_backed_id(self):
        cells = sweep_cells(registry.resolve_sweeps(["AUX-3.5"])[0])
        assert len(cells) == 1
        assert cells[0].experiment_id == "AUX-3.5"


class TestNarrowedGrids:
    def test_gworst_single_regime_does_not_crash(self):
        sweep = sweep_t1_directed_worsteq_existential(ks=(4, 8, 16, 32))
        narrowed = sweep.with_grid(regime=("high",))
        run, _ = run_sweep(narrowed, jobs=1)
        assert [cell.experiment_id for cell in run.cells] == ["T1-D-weq-E-high"]
        assert run.cells[0].passed

    def test_gworst_single_point_is_check_not_crash(self):
        sweep = sweep_t1_directed_worsteq_existential(ks=(8,))
        run, _ = run_sweep(sweep, jobs=1)
        # One point cannot establish a slope: verdict degrades to CHECK
        # (bound_check unset, no fit) instead of raising.
        assert all(cell.bound_check is None for cell in run.cells)
        assert all(not cell.passed for cell in run.cells)
