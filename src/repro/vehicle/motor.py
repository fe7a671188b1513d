"""Electric machine model (paper Eq. 3-4).

The machine works in two quadrants: motoring (positive torque, drawing
``P_batt - p_aux`` from the DC bus) and generating (negative torque, pushing
power back into the bus).  Efficiency is a smooth map with a mid-speed,
mid-torque sweet spot, applied multiplicatively when motoring and
divisively when generating exactly as Eq. 3 prescribes:

    motoring:    T * omega = eta * P_electrical
    generating:  P_electrical = eta * T * omega      (P, T*omega both < 0)

All methods broadcast over numpy arrays.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.vehicle.params import MotorParams

ArrayLike = Union[float, np.ndarray]


class Motor:
    """Permanent-magnet machine with a constant-torque/constant-power envelope."""

    def __init__(self, params: MotorParams):
        self._params = params

    @property
    def params(self) -> MotorParams:
        """The motor parameter set this model was built from."""
        return self._params

    # --- operating envelope ---------------------------------------------------

    def max_torque(self, speed: ArrayLike) -> ArrayLike:
        """Motoring torque limit ``T_max(omega)`` in N*m (Eq. 4).

        Constant ``max_torque`` below base speed, then the rated-power
        hyperbola; zero beyond ``max_speed``.
        """
        p = self._params
        speed = np.asarray(speed, dtype=float)
        hyperbola = p.max_power / np.maximum(speed, 1e-9)
        torque = np.where(speed <= p.base_speed, p.max_torque,
                          np.minimum(p.max_torque, hyperbola))
        return np.where((speed >= 0) & (speed <= p.max_speed), torque, 0.0)

    # --- efficiency and power -------------------------------------------------

    def _efficiency_given_limit(self, torque: ArrayLike, speed: ArrayLike,
                                t_lim: ArrayLike) -> ArrayLike:
        """Efficiency with the local torque limit already computed.

        Split out of :meth:`efficiency` because the fixed-point power
        inversion evaluates the map several times at a constant speed, and
        the torque-limit curve is the expensive part.
        """
        p = self._params
        torque = np.abs(np.asarray(torque, dtype=float))
        torque_frac = np.minimum(torque / t_lim, 1.5)
        ds = np.asarray(speed, dtype=float) / p.max_speed \
            - p.optimal_speed_fraction
        dt = torque_frac - p.optimal_torque_fraction
        eta = p.peak_efficiency * (1.0 - 0.5 * ds ** 2 - 0.45 * dt ** 2)
        return np.minimum(np.maximum(eta, p.efficiency_floor),
                          p.peak_efficiency)

    def efficiency(self, torque: ArrayLike, speed: ArrayLike) -> ArrayLike:
        """Map efficiency ``eta_EM(T, omega)``, dimensionless, both quadrants.

        The map is symmetric in the sign of torque (typical of PM machines)
        with a sweet spot at ``optimal_speed_fraction * max_speed`` and
        ``optimal_torque_fraction`` of the local torque limit.  At standstill
        or zero torque the efficiency is pinned to the floor; the power model
        never divides by it there.
        """
        t_lim = np.maximum(self.max_torque(speed), 1e-9)
        return self._efficiency_given_limit(torque, speed, t_lim)

    def electrical_power(self, torque: ArrayLike, speed: ArrayLike) -> ArrayLike:
        """DC-bus power drawn by the machine, W (Eq. 3 rearranged).

        Positive when motoring (power flows battery -> wheels), negative when
        generating.  The mechanical power is divided by efficiency when
        motoring and multiplied by it when generating.
        """
        torque = np.asarray(torque, dtype=float)
        speed = np.asarray(speed, dtype=float)
        mech = torque * speed
        eta = np.asarray(self.efficiency(torque, speed))
        return np.where(mech >= 0.0, mech / eta, mech * eta)

    def torque_from_electrical_power(self, power: ArrayLike,
                                     speed: ArrayLike) -> ArrayLike:
        """Invert Eq. 3: shaft torque produced when drawing ``power`` from the bus.

        Because the efficiency map depends on the (unknown) torque, the
        inversion runs a short fixed-point iteration, which converges fast
        since efficiency varies slowly with torque.  At (near-)zero speed the
        machine can transmit no power and the result is zero torque.
        """
        power = np.asarray(power, dtype=float)
        speed = np.asarray(speed, dtype=float)
        safe_speed = np.maximum(speed, 1e-6)
        t_lim = np.maximum(self.max_torque(speed), 1e-9)
        motoring = power >= 0.0
        # Fixed-point iteration from the peak-efficiency guess; efficiency
        # varies slowly with torque, so five torque evaluations (the
        # efficiency re-derived between them) converge to well below the
        # solver's torque tolerance.
        eta = np.full(np.broadcast(power, speed).shape,
                      self._params.peak_efficiency)
        for sweep in range(5):
            if sweep:
                eta = self._efficiency_given_limit(torque, speed, t_lim)
            torque = np.where(motoring, power * eta / safe_speed,
                              power / (eta * safe_speed))
        return np.where(speed > 1e-6, torque, 0.0)
