"""Markov-chain power-demand predictor (ablation alternative).

Discretises the measured power demand into bins, learns the empirical
first-order transition matrix online, and predicts the expected value of
the next bin given the current one.  Compared with the exponential filter
this captures recurring demand patterns (stop-and-go rhythms) at the price
of a short warm-up and per-step bookkeeping.
"""

from __future__ import annotations

import numpy as np

from repro.prediction.base import Predictor


class MarkovPredictor(Predictor):
    """Online first-order Markov-chain predictor over power-demand bins."""

    def __init__(self, power_min: float = -40_000.0, power_max: float = 40_000.0,
                 num_bins: int = 16, prior_count: float = 0.5):
        """Bins span ``[power_min, power_max]`` W; ``prior_count`` is the
        Laplace smoothing added to every transition cell."""
        if power_max <= power_min:
            raise ValueError("power range is empty")
        if num_bins < 2:
            raise ValueError("need at least two bins")
        if prior_count < 0:
            raise ValueError("prior count cannot be negative")
        self._edges = np.linspace(power_min, power_max, num_bins + 1)
        self._centers = 0.5 * (self._edges[:-1] + self._edges[1:])
        self._counts = np.full((num_bins, num_bins), prior_count)
        self._prior_count = prior_count
        self._last_bin: int = num_bins // 2
        self._initial_bin: int = num_bins // 2

    def _bin_of(self, power: float) -> int:
        idx = int(np.searchsorted(self._edges, power, side="right") - 1)
        return int(np.clip(idx, 0, len(self._centers) - 1))

    def update(self, measurement: float) -> None:
        """Count the transition into the measurement's bin and move there."""
        new_bin = self._bin_of(float(measurement))
        self._counts[self._last_bin, new_bin] += 1.0
        self._last_bin = new_bin

    def predict(self) -> float:
        """Expected next demand: probability-weighted bin centres, W."""
        row = self._counts[self._last_bin]
        total = row.sum()
        if total <= 0:
            return float(self._centers[self._last_bin])
        return float(np.dot(row / total, self._centers))

    def reset(self) -> None:
        """Reset the chain position but keep the learned transitions.

        The transition statistics generalise across episodes of the same
        driving environment, so only the position is episode-specific.
        """
        self._last_bin = self._initial_bin
