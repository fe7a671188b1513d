"""Terminal plotting: sparklines without matplotlib.

The library is deliberately dependency-light; these helpers render SoC
trajectories, learning curves, and speed traces as Unicode block-character
sparklines for the CLI and the examples.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """One-line block-character rendering of a series.

    The series is resampled to ``width`` columns and mapped onto eight
    vertical levels; a constant series renders at the middle level.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return ""
    if width < 1:
        raise ValueError("width must be positive")
    if arr.size > width:
        # Block-mean resampling keeps spikes visible better than striding.
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.asarray([arr[a:b].mean() if b > a else arr[min(a, arr.size - 1)]
                          for a, b in zip(edges[:-1], edges[1:])])
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-12:
        return _SPARK_LEVELS[3] * len(arr)
    idx = ((arr - lo) / (hi - lo) * (len(_SPARK_LEVELS) - 1)).round()
    return "".join(_SPARK_LEVELS[int(i)] for i in idx)


def soc_strip(soc_values: Sequence[float], soc_min: float = 0.40,
              soc_max: float = 0.80, width: int = 60) -> str:
    """Sparkline of an SoC trace annotated with the window bounds."""
    spark = sparkline(soc_values, width)
    arr = np.asarray(list(soc_values), dtype=float)
    return (f"SoC [{soc_min:.0%}..{soc_max:.0%}] "
            f"start={arr[0]:.2f} end={arr[-1]:.2f}  {spark}")
