"""Table 1 harness tests."""

import math

from repro.analysis import (
    CellResult,
    SeriesPoint,
    render_markdown,
    render_series_block,
)


def _linear_cell(experiment_id="T1-TEST"):
    series = [SeriesPoint(k, 2.0 * k) for k in (2, 4, 8, 16)]
    return CellResult(
        experiment_id=experiment_id,
        graph_class="directed",
        ratio="optP/optC",
        bound_kind="existential",
        paper_claim="Omega(k)",
        series=series,
        expected_shape="linear",
    )


class TestCellResult:
    def test_fit_computed_automatically(self):
        cell = _linear_cell()
        assert cell.fit is not None
        assert cell.measured_shape == "linear"
        assert cell.passed

    def test_mismatch_flags_check(self):
        series = [SeriesPoint(k, 5.0) for k in (2, 4, 8)]
        cell = CellResult(
            experiment_id="X",
            graph_class="-",
            ratio="optP/optC",
            bound_kind="universal",
            paper_claim="Omega(k)",
            series=series,
            expected_shape="linear",
        )
        assert cell.measured_shape == "constant"
        assert not cell.passed
        assert cell.row()[-1] == "CHECK"

    def test_log_series(self):
        series = [SeriesPoint(n, math.log(n) + 1) for n in (4, 8, 16, 32, 64)]
        cell = CellResult(
            "L", "undirected", "optP/optC", "existential",
            "Omega(log n)", series, "logarithmic",
        )
        assert cell.passed

    def test_series_str(self):
        cell = _linear_cell()
        assert "2:4" in cell.series_str()


class TestRendering:
    def test_markdown_table(self):
        text = render_markdown([_linear_cell()])
        assert text.startswith("| experiment |")
        assert "PASS" in text
        assert "Omega(k)" in text

    def test_series_block(self):
        text = render_series_block([_linear_cell()])
        assert "[T1-TEST]" in text
        assert "fit:" in text
