"""The controller protocol the simulator drives.

Any supervisory controller — learning or not — implements ``act`` once
per time step; ``begin_episode`` (at departure) and ``finish_episode``
(at arrival) are no-ops that stateful controllers override.  ``act``
receives exactly what a real HEV supervisory controller can observe
(speed, pedal-implied acceleration, grade, battery SoC from Coulomb
counting) and returns the :class:`repro.rl.agent.ExecutedStep` describing
what was done, usually built by :meth:`ExecutedStep.of_row` from one row
of a solver batch.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.rl.agent import ExecutedStep


class Controller(abc.ABC):
    """Abstract supervisory controller."""

    def begin_episode(self) -> None:
        """Prepare for a new drive (reset episode-scoped state)."""

    @abc.abstractmethod
    def act(self, speed: float, acceleration: float, soc: float, dt: float,
            grade: float = 0.0, learn: bool = True,
            greedy: bool = False) -> ExecutedStep:
        """Decide and execute one step; returns the resolved step.

        Non-learning controllers ignore ``learn``/``greedy``.
        """

    def finish_episode(self, learn: bool = True) -> None:
        """Drive finished (flush terminal learning updates, if any)."""


def gear_order(shift_speeds, num_gears: int, speed: float) -> np.ndarray:
    """Gears in shift-schedule preference order: the gear ``shift_speeds``
    schedules at ``speed`` first, then its neighbours by distance (the
    fallbacks when the scheduled gear cannot carry the demand)."""
    preferred = min(int(np.searchsorted(shift_speeds, speed)), num_gears - 1)
    return np.asarray(sorted(range(num_gears),
                             key=lambda g: abs(g - preferred)), dtype=int)
