"""Quantisation of predictions into RL state levels.

The paper stresses the accuracy/complexity trade-off: every extra precision
level of the prediction adds a dimension's worth of state-action pairs to
the Q-table.  The quantiser maps the continuous predicted power demand into
a small number of levels (three by default: regenerating / light / heavy
demand) that become the ``pre`` component of the RL state.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence


class PredictionQuantizer:
    """Maps a continuous prediction to one of ``len(thresholds) + 1`` levels."""

    def __init__(self, thresholds: Sequence[float] = (0.0, 8_000.0)):
        """``thresholds`` are strictly increasing power boundaries in W; a
        prediction below the first threshold maps to level 0, and so on."""
        t = [float(x) for x in thresholds]
        if len(t) < 1:
            raise ValueError("need at least one threshold")
        if any(math.isnan(x) for x in t) or any(
                b <= a for a, b in zip(t, t[1:])):
            raise ValueError("thresholds must be strictly increasing numbers")
        self._thresholds = t

    @property
    def num_levels(self) -> int:
        """Number of discrete prediction levels."""
        return len(self._thresholds) + 1

    def __call__(self, prediction: float) -> int:
        """Quantise one prediction to its level index: the number of
        thresholds ``<= prediction``, as ``np.searchsorted(...,
        side="right")`` counts them (NaN maps to the top level)."""
        return bisect_right(self._thresholds, float(prediction))
