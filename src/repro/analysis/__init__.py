"""Asymptotic fitting and the Table 1 reproduction harness."""

from .fitting import (
    MODELS,
    Fit,
    best_fit,
    fit_constant,
    fit_inverse,
    fit_linear,
    fit_logarithmic,
    fit_power,
    growth_exponent,
)
from .table1 import CellResult, SeriesPoint, render_markdown, render_series_block

__all__ = [
    "MODELS",
    "Fit",
    "best_fit",
    "fit_constant",
    "fit_inverse",
    "fit_linear",
    "fit_logarithmic",
    "fit_power",
    "growth_exponent",
    "CellResult",
    "SeriesPoint",
    "render_markdown",
    "render_series_block",
]
