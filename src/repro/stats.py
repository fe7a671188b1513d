"""Running statistics shared by the safety and serving layers."""

from __future__ import annotations

import math

import numpy as np


class Welford:
    """Running mean/variance (Welford), updatable by one value or a batch.

    The accumulator behind both canary groups, the promotion watchdog's
    incumbent baseline (:class:`repro.learn.promotion.RegressionWatchdog`)
    and the safety layer's reward-collapse baseline
    (:class:`repro.safety.monitors.RewardCollapseMonitor`).
    """

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        """Fold one sample into the running moments."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def update_batch(self, values: np.ndarray) -> None:
        """Fold a batch of samples into the running moments."""
        values = np.asarray(values, dtype=float)
        n = int(values.size)
        if n == 0:
            return
        batch_mean = float(values.mean())
        batch_m2 = float(((values - batch_mean) ** 2).sum())
        delta = batch_mean - self.mean
        total = self.count + n
        self.mean += delta * n / total
        self._m2 += batch_m2 + delta * delta * self.count * n / total
        self.count = total

    @property
    def std(self) -> float:
        """Sample standard deviation (0 before two samples)."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.count - 1))
