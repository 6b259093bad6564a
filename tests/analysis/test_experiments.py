"""End-to-end experiment smoke tests (small sizes; benches run defaults)."""

import pytest

from repro.analysis.experiments import (
    sweep_aux_frt_stretch,
    sweep_aux_online_steiner,
    sweep_fig1,
    sweep_fig2,
    sweep_sec4,
    sweep_t1_directed_besteq_existential,
    sweep_t1_directed_opt_existential,
    sweep_t1_directed_opt_universal,
    sweep_t1_directed_worsteq_existential,
    sweep_t1_undirected_besteq_existential,
    sweep_t1_undirected_opt_existential,
    sweep_t1_undirected_worsteq_existential,
)
from repro.runtime.executor import sweep_cells


class TestUniversalCells:
    def test_directed_opt_universal_bounds_hold(self):
        cells = sweep_cells(
            sweep_t1_directed_opt_universal(ks=(2, 3), seeds=(0, 1))
        )
        assert len(cells) == 1
        assert cells[0].bound_check is True
        assert cells[0].passed


class TestExistentialCells:
    def test_affine_cell_is_linear(self):
        cells = sweep_cells(
            sweep_t1_directed_opt_existential(orders=(2, 3, 4, 5), mc_samples=800)
        )
        assert cells[0].measured_shape == "linear"
        assert cells[0].passed

    def test_anshelevich_cell_is_reciprocal_log(self):
        cells = sweep_cells(
            sweep_t1_directed_besteq_existential(
                orders=(2, 3, 4), anshelevich_ks=(4, 8, 16, 32)
            )
        )
        upper = [c for c in cells if c.experiment_id.endswith("upper")][0]
        assert upper.measured_shape == "reciprocal-log"

    def test_gworst_cells(self):
        cells = sweep_cells(sweep_t1_directed_worsteq_existential(ks=(4, 8, 16, 32)))
        by_regime = {c.experiment_id.split("-")[-1]: c for c in cells}
        assert by_regime["high"].measured_shape == "linear"
        # 1/k vs 1/log k classification is fragile on short series; the
        # cells decide via the log-log slope (bound_check).
        assert by_regime["high"].passed
        assert by_regime["low"].passed
        undirected = sweep_cells(
            sweep_t1_undirected_worsteq_existential(ks=(4, 8, 16, 32))
        )
        assert all(c.passed for c in undirected)

    def test_diamond_cell_is_logarithmic(self):
        cells = sweep_cells(
            sweep_t1_undirected_opt_existential(levels=(1, 2, 3, 4), samples=10)
        )
        assert cells[0].measured_shape == "logarithmic"

    def test_bliss_cell_below_one(self):
        cells = sweep_cells(
            sweep_t1_undirected_besteq_existential(levels=(1, 2, 3), samples=8)
        )
        below = [c for c in cells if c.experiment_id.endswith("below1")][0]
        assert below.bound_check is True


class TestFigureAndSectionCells:
    def test_fig1(self):
        cells = sweep_cells(sweep_fig1(ks=(4, 8, 16, 32), exact_k=4))
        assert cells[0].measured_shape == "reciprocal-log"
        assert cells[0].passed

    def test_fig2(self):
        cells = sweep_cells(sweep_fig2(ks=(4, 8, 16, 32)))
        assert all(c.passed for c in cells)

    def test_sec4(self):
        cells = sweep_cells(
            sweep_sec4(trials=3, shape=(4, 3), priors_per_trial=10)
        )
        assert cells[0].bound_check is True

    def test_aux_frt(self):
        cells = sweep_cells(sweep_aux_frt_stretch(ns=(8, 16, 32), trees_per_n=6))
        assert cells[0].series[0].value >= 1.0

    def test_aux_online(self):
        cells = sweep_cells(sweep_aux_online_steiner(levels=(1, 2, 3), samples=8))
        values = [p.value for p in cells[0].series]
        assert values == sorted(values)


class TestUnitEngineSelection:
    def test_unit_ncs_report_inherits_ambient_engine(self, monkeypatch):
        """An ambient REPRO_ENGINE/engine_override pin must reach the
        unit task; only an explicit engine= parameter overrides it."""
        from repro.analysis.experiments import unit_ncs_report
        from repro.core import tensor

        lowerings = []
        real_lower = tensor._lower  # the structural walk every lowering runs
        monkeypatch.setattr(
            tensor,
            "_lower",
            lambda *args, **kwargs: (
                lowerings.append(1),
                real_lower(*args, **kwargs),
            )[1],
        )
        with tensor.engine_override("reference"):
            pinned = unit_ncs_report(k=2, seed=0, directed=True)
            assert lowerings == []  # ambient pin honored: no lowering
            explicit = unit_ncs_report(k=2, seed=0, directed=True, engine="auto")
            assert lowerings  # explicit param wins over the pin
        for key, value in pinned.items():
            assert abs(explicit[key] - value) <= 1e-9 * max(1.0, abs(value))
