"""The :class:`DriveCycle` container.

A drive cycle is a uniformly sampled speed trace (plus an optional road-grade
trace) that the backward-looking simulation replays: at step ``t`` the driver
demands speed ``speed[t]`` and the acceleration implied by the next sample.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import CycleError


class DriveCycle:
    """A uniformly sampled drive cycle (speed in m/s, grade in radians)."""

    def __init__(self, name: str, speeds: np.ndarray, dt: float = 1.0,
                 grades: Optional[np.ndarray] = None):
        speeds = np.asarray(speeds, dtype=float)
        if speeds.ndim != 1 or len(speeds) < 2:
            raise CycleError("a drive cycle needs a 1-D trace of >= 2 samples")
        if not np.all(np.isfinite(speeds)):
            raise CycleError("speeds must be finite")
        if np.any(speeds < 0):
            raise CycleError("speeds cannot be negative")
        if dt <= 0:
            raise CycleError("sample period must be positive")
        if grades is None:
            grades = np.zeros_like(speeds)
        else:
            grades = np.asarray(grades, dtype=float)
            if grades.shape != speeds.shape:
                raise CycleError("grade trace must match the speed trace shape")
            if not np.all(np.isfinite(grades)):
                raise CycleError("grades must be finite")
        self.name = name
        self.dt = float(dt)
        self.speeds = speeds
        self.grades = grades

    # --- basic properties -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.speeds)

    @property
    def duration(self) -> float:
        """Total duration, s."""
        return (len(self.speeds) - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        """Sample timestamps, s."""
        return np.arange(len(self.speeds)) * self.dt

    @property
    def accelerations(self) -> np.ndarray:
        """Forward-difference accelerations, m/s^2 (zero at the last sample).

        The backward-looking simulator pairs ``speeds[t]`` with this
        acceleration when computing the step-``t`` power demand.
        """
        acc = np.zeros_like(self.speeds)
        acc[:-1] = np.diff(self.speeds) / self.dt
        return acc

    @property
    def distance(self) -> float:
        """Trip distance by trapezoidal integration of the speed trace, m."""
        return float(np.trapezoid(self.speeds, dx=self.dt))

    @property
    def mean_speed(self) -> float:
        """Trip-average speed including idle time, m/s."""
        return self.distance / self.duration if self.duration > 0 else 0.0

    @property
    def max_speed(self) -> float:
        """Peak speed, m/s."""
        return float(np.max(self.speeds))

    # --- iteration ---------------------------------------------------------------

    def steps(self) -> Iterator[Tuple[float, float, float]]:
        """Yield (speed, acceleration, grade) per simulation step.

        There are ``len(cycle) - 1`` steps: the last sample only terminates
        the previous step.
        """
        acc = self.accelerations
        for t in range(len(self.speeds) - 1):
            yield float(self.speeds[t]), float(acc[t]), float(self.grades[t])

    # --- transformations -----------------------------------------------------------

    def repeat(self, count: int) -> "DriveCycle":
        """Concatenate ``count`` back-to-back repetitions of this cycle.

        The junctions are seamless only if the cycle starts and ends at rest,
        which every synthesised standard cycle does.
        """
        if count < 1:
            raise CycleError("repeat count must be >= 1")
        speeds = np.concatenate([self.speeds] + [self.speeds[1:]] * (count - 1))
        grades = np.concatenate([self.grades] + [self.grades[1:]] * (count - 1))
        return DriveCycle(f"{self.name}x{count}", speeds, self.dt, grades)

    def slice(self, start: int, stop: int) -> "DriveCycle":
        """Extract the sub-cycle covering samples ``[start, stop)``."""
        if stop - start < 2:
            raise CycleError("a slice must keep at least two samples")
        return DriveCycle(f"{self.name}[{start}:{stop}]",
                          self.speeds[start:stop], self.dt,
                          self.grades[start:stop])

    def __repr__(self) -> str:
        return (f"DriveCycle({self.name!r}, {len(self)} samples, "
                f"{self.duration:.0f}s, {self.distance / 1000:.2f}km)")
