"""Drivetrain mechanics: gearbox plus EM reduction gear (paper Eq. 8-10).

The parallel-HEV drivetrain couples the engine and the electric machine to
the wheels through a selectable gear ratio ``R(k)`` (which here includes the
final drive) and couples the EM to the crankshaft through a fixed reduction
gear ``rho_reg``:

    omega_wh  = omega_ICE / R(k) = omega_EM / (R(k) * rho_reg)
    T_wh      = R(k) * (T_ICE + rho_reg * T_EM * eta_reg^alpha) * eta_gb^beta

with the efficiency exponents ``alpha`` and ``beta`` flipping sign with the
power-flow direction (Eq. 9-10).  All methods broadcast over numpy arrays.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.vehicle.params import TransmissionParams

ArrayLike = Union[float, np.ndarray]


class Transmission:
    """Multi-speed gearbox with an EM reduction gear, per Eq. 8-10."""

    def __init__(self, params: TransmissionParams):
        self._params = params
        self._ratios = np.asarray(params.gear_ratios, dtype=float)

    @property
    def params(self) -> TransmissionParams:
        """The transmission parameter set this model was built from."""
        return self._params

    @property
    def num_gears(self) -> int:
        """Number of selectable gears."""
        return self._params.num_gears

    def ratio(self, gear: ArrayLike) -> ArrayLike:
        """Overall ratio ``R(k)`` for 0-based gear index ``gear``."""
        gear = np.asarray(gear, dtype=int)
        if np.any((gear < 0) | (gear >= self.num_gears)):
            raise IndexError("gear index out of range")
        return self._ratios[gear]

    # --- speed relations (Eq. 8, first line) -----------------------------------

    def engine_speed(self, wheel_speed: ArrayLike, gear: ArrayLike) -> ArrayLike:
        """Crankshaft speed ``omega_ICE = omega_wh * R(k)``, rad/s."""
        return np.asarray(wheel_speed, dtype=float) * self.ratio(gear)

    def motor_speed(self, wheel_speed: ArrayLike, gear: ArrayLike) -> ArrayLike:
        """EM rotor speed ``omega_EM = omega_wh * R(k) * rho_reg``, rad/s."""
        return self.engine_speed(wheel_speed, gear) * self._params.reduction_ratio

    # --- torque relations (Eq. 8, second line, with Eq. 9-10) --------------------

    def motor_torque_at_shaft(self, motor_torque: ArrayLike) -> ArrayLike:
        """EM torque referred to the crankshaft: ``rho_reg * T_EM * eta_reg^alpha``.

        ``alpha = +1`` when motoring (torque flows EM -> shaft, losing the
        reduction-gear loss), ``-1`` when generating (the shaft must supply
        the loss).
        """
        p = self._params
        t = np.asarray(motor_torque, dtype=float)
        eta = np.where(t >= 0.0, p.reduction_efficiency, 1.0 / p.reduction_efficiency)
        return p.reduction_ratio * t * eta

    def wheel_torque(self, engine_torque: ArrayLike, motor_torque: ArrayLike,
                     gear: ArrayLike) -> ArrayLike:
        """Wheel torque produced by the ICE/EM pair in gear ``gear`` (Eq. 8)."""
        p = self._params
        shaft = np.asarray(engine_torque, dtype=float) + self.motor_torque_at_shaft(
            motor_torque)
        eta = np.where(shaft >= 0.0, p.gearbox_efficiency, 1.0 / p.gearbox_efficiency)
        return self.ratio(gear) * shaft * eta

    def required_shaft_torque(self, wheel_torque: ArrayLike,
                              gear: ArrayLike) -> ArrayLike:
        """Invert Eq. 8: combined crankshaft torque needed for a wheel torque.

        Returns ``T_ICE + rho_reg * T_EM * eta_reg^alpha``.  When the wheel
        torque is positive the gearbox loss inflates the requirement; when
        negative (braking power flowing back) the loss shrinks the magnitude
        reaching the shaft.
        """
        p = self._params
        t_wh = np.asarray(wheel_torque, dtype=float)
        ratio = self.ratio(gear)
        return np.where(
            t_wh >= 0.0,
            t_wh / (ratio * p.gearbox_efficiency),
            t_wh * p.gearbox_efficiency / ratio,
        )

    def motor_torque_from_shaft(self, shaft_torque: ArrayLike) -> ArrayLike:
        """Invert :meth:`motor_torque_at_shaft`: EM torque for a shaft contribution."""
        p = self._params
        s = np.asarray(shaft_torque, dtype=float)
        eta = np.where(s >= 0.0, p.reduction_efficiency, 1.0 / p.reduction_efficiency)
        return s / (p.reduction_ratio * eta)

    # --- gear selection helpers ---------------------------------------------------
