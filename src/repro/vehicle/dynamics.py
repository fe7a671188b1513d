"""Longitudinal vehicle dynamics (paper Eq. 5-7).

Given the driver-imposed speed, acceleration, and road grade, the backward-
looking simulation computes the tractive force at the contact patch, the
wheel torque/speed, and the propulsion power demand ``p_dem``.  All functions
accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.units import AIR_DENSITY, GRAVITY
from repro.vehicle.params import BodyParams

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class RoadLoad:
    """Breakdown of the tractive-force components at one operating point."""

    inertial: ArrayLike
    """``m * a`` term, N."""

    grade: ArrayLike
    """``F_g = m g sin(theta)`` term, N."""

    rolling: ArrayLike
    """``F_R = m g cos(theta) C_R`` term, N (zero at standstill)."""

    aerodynamic: ArrayLike
    """``F_AD = 0.5 rho C_D A_F v^2`` term, N."""

    @property
    def total(self) -> ArrayLike:
        """Total tractive force ``F_TR``, N (Eq. 5)."""
        return self.inertial + self.grade + self.rolling + self.aerodynamic


class VehicleDynamics:
    """Backward-looking longitudinal dynamics of a rigid four-wheel vehicle."""

    def __init__(self, params: BodyParams):
        self._params = params

    @property
    def params(self) -> BodyParams:
        """The body parameter set this model was built from."""
        return self._params

    def road_load(self, speed: ArrayLike, acceleration: ArrayLike,
                  grade: ArrayLike = 0.0) -> RoadLoad:
        """Compute the tractive-force breakdown of Eq. 5.

        ``speed`` is in m/s, ``acceleration`` in m/s^2, and ``grade`` is the
        road slope angle theta in radians.  Rolling resistance vanishes at
        standstill (no relative motion of the contact patch).
        """
        p = self._params
        speed = np.asarray(speed, dtype=float)
        inertial = p.mass * np.asarray(acceleration, dtype=float)
        grade_force = p.mass * GRAVITY * np.sin(grade)
        moving = speed > 1e-9
        rolling = np.where(
            moving, p.mass * GRAVITY * np.cos(grade) * p.rolling_resistance, 0.0)
        aero = 0.5 * AIR_DENSITY * p.drag_coefficient * p.frontal_area * speed ** 2
        return RoadLoad(inertial=inertial, grade=grade_force,
                        rolling=rolling, aerodynamic=aero)

    def tractive_force(self, speed: ArrayLike, acceleration: ArrayLike,
                       grade: ArrayLike = 0.0) -> ArrayLike:
        """Total tractive force ``F_TR`` in N (Eq. 5)."""
        return self.road_load(speed, acceleration, grade).total

    def wheel_speed(self, speed: ArrayLike) -> ArrayLike:
        """Wheel angular speed ``omega_wh = v / r_wh`` in rad/s (Eq. 6)."""
        return np.asarray(speed, dtype=float) / self._params.wheel_radius

    def wheel_torque(self, speed: ArrayLike, acceleration: ArrayLike,
                     grade: ArrayLike = 0.0) -> ArrayLike:
        """Wheel torque ``T_wh = F_TR * r_wh`` in N*m (Eq. 6)."""
        return self.tractive_force(speed, acceleration, grade) * self._params.wheel_radius

    def power_demand(self, speed: ArrayLike, acceleration: ArrayLike,
                     grade: ArrayLike = 0.0) -> ArrayLike:
        """Propulsion power demand ``p_dem = F_TR * v`` in W (Eq. 7).

        Negative values indicate braking power that regenerative braking may
        recover (up to the EM and battery limits).
        """
        speed = np.asarray(speed, dtype=float)
        return self.tractive_force(speed, acceleration, grade) * speed
