"""Common interface of driving-profile predictors.

A predictor is an online filter: at each time step it is fed the measured
propulsion power demand and exposes a prediction of the upcoming demand.
``predict()`` must be callable before the first ``update()`` (returning a
neutral prior) because the RL agent needs a state at t = 0.
"""

from __future__ import annotations

import abc


class Predictor(abc.ABC):
    """Online one-step-ahead predictor of propulsion power demand."""

    @abc.abstractmethod
    def update(self, measurement: float) -> None:
        """Feed the measured power demand of the step that just completed, W."""

    @abc.abstractmethod
    def predict(self) -> float:
        """Return the predicted upcoming power demand, W."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all history (start of a new driving episode)."""
