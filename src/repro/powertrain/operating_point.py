"""Containers for resolved powertrain operating points.

:class:`OperatingPoint` is the scalar view a controller or test inspects for
one (state, action) pair; :class:`BatchResult` is the structure-of-arrays
view the solver produces when evaluating a whole batch of candidate actions
for one time step (the fast path used by RL training and the inner
optimisation of the reduced action space).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.powertrain.modes import OperatingMode


@dataclass(frozen=True)
class OperatingPoint:
    """Fully resolved powertrain state for one (driver demand, action) pair."""

    feasible: bool
    """Whether every component constraint (Eq. 2, 4, current and SoC-window
    limits) is satisfied and the traction demand is met."""

    mode: OperatingMode
    """Energy-flow classification of the point."""

    power_demand: float
    """Driver propulsion power demand ``p_dem``, W (negative while braking)."""

    wheel_speed: float
    """Wheel angular speed, rad/s."""

    wheel_torque: float
    """Demanded wheel torque, N*m."""

    gear: int
    """Selected 0-based gear index."""

    engine_speed: float
    """Crankshaft speed, rad/s (zero when the engine is off)."""

    engine_torque: float
    """Engine brake torque, N*m (zero when the engine is off)."""

    motor_speed: float
    """EM rotor speed, rad/s."""

    motor_torque: float
    """EM shaft torque, N*m (negative while generating)."""

    battery_current: float
    """Actual pack current after saturation, A (positive = discharge)."""

    battery_power: float
    """Actual pack terminal power, W (positive = discharge)."""

    aux_power: float
    """Auxiliary-system draw ``p_aux``, W."""

    fuel_rate: float
    """Fuel mass-flow rate ``mdot_f``, g/s."""

    brake_torque: float
    """Friction-brake torque at the wheel, N*m (non-positive)."""

    shortfall: float = 0.0
    """Undelivered shaft torque, N*m (zero when demand is met)."""

    def __post_init__(self) -> None:
        if self.aux_power < 0:
            raise ConfigurationError("auxiliary power cannot be negative")
        if self.fuel_rate < -1e-12:
            raise ConfigurationError("fuel rate cannot be negative")


@dataclass
class BatchResult:
    """Structure-of-arrays result of evaluating N candidate actions at once.

    Every field is a numpy array of length N, index-aligned with the action
    batch handed to :meth:`repro.powertrain.solver.PowertrainSolver.evaluate_actions`.
    """

    feasible: np.ndarray
    """Boolean feasibility flags."""

    mode: np.ndarray
    """Integer :class:`OperatingMode` values."""

    power_demand: float
    """Scalar driver power demand shared by the batch, W."""

    wheel_speed: float
    """Scalar wheel speed shared by the batch, rad/s."""

    wheel_torque: float
    """Scalar demanded wheel torque shared by the batch, N*m."""

    gear: np.ndarray
    """0-based gear index per action."""

    engine_speed: np.ndarray
    """Crankshaft speed per action, rad/s."""

    engine_torque: np.ndarray
    """Engine torque per action, N*m."""

    motor_speed: np.ndarray
    """EM speed per action, rad/s."""

    motor_torque: np.ndarray
    """EM torque per action, N*m."""

    battery_current: np.ndarray
    """Actual pack current per action, A."""

    battery_power: np.ndarray
    """Actual pack terminal power per action, W."""

    aux_power: np.ndarray
    """Auxiliary draw per action, W."""

    fuel_rate: np.ndarray
    """Fuel rate per action, g/s."""

    brake_torque: np.ndarray
    """Friction-brake torque per action, N*m."""

    meets_demand: np.ndarray
    """True where the action delivers the demanded wheel torque exactly."""

    window_ok: np.ndarray
    """True where the post-step charge stays inside the SoC operating window."""

    soc_next: np.ndarray
    """Post-step state of charge (fraction) under each action."""

    shortfall: np.ndarray
    """Undelivered shaft torque, N*m (zero when demand is met)."""

    def __len__(self) -> int:
        return len(self.fuel_rate)

    def point(self, index: int) -> OperatingPoint:
        """Extract the scalar :class:`OperatingPoint` at ``index``."""
        return OperatingPoint(
            feasible=bool(self.feasible[index]),
            mode=OperatingMode(int(self.mode[index])),
            power_demand=float(self.power_demand),
            wheel_speed=float(self.wheel_speed),
            wheel_torque=float(self.wheel_torque),
            gear=int(self.gear[index]),
            engine_speed=float(self.engine_speed[index]),
            engine_torque=float(self.engine_torque[index]),
            motor_speed=float(self.motor_speed[index]),
            motor_torque=float(self.motor_torque[index]),
            battery_current=float(self.battery_current[index]),
            battery_power=float(self.battery_power[index]),
            aux_power=float(self.aux_power[index]),
            fuel_rate=float(self.fuel_rate[index]),
            brake_torque=float(self.brake_torque[index]),
            shortfall=float(self.shortfall[index]),
        )

    def first_feasible(self) -> Optional[int]:
        """Lowest feasible row, or None when no row is feasible."""
        rows = np.flatnonzero(self.feasible)
        return int(rows[0]) if len(rows) else None

    def least_bad(self, violation: np.ndarray) -> int:
        """Row to execute when none is feasible.

        Prefer meeting the traction demand, then the smallest SoC-window
        excursion ``violation`` (per row, measured against the caller's
        window), then the smallest torque shortfall.
        """
        score = (np.where(self.meets_demand, 0.0, 1e6)
                 + np.asarray(violation) * 1e3 + self.shortfall)
        return int(np.argmin(score))
