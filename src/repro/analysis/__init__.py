"""Analysis: fuel-economy metrics and table/figure text rendering."""

from repro.analysis.metrics import (
    improvement_percent,
    normalized_fuel,
    reward_gap_percent,
)
from repro.analysis.reporting import render_figure_series, render_table
from repro.analysis.ascii_plot import soc_strip, sparkline

__all__ = [
    "sparkline",
    "soc_strip",
    "improvement_percent",
    "normalized_fuel",
    "reward_gap_percent",
    "render_table",
    "render_figure_series",
]
