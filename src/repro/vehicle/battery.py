"""Rint-model traction battery with Coulomb counting.

The pack is modelled as an SoC-dependent open-circuit voltage source behind
an internal resistance that differs between charge and discharge (the
standard "Rint" model used by ADVISOR and by the paper's Eq. 3 power terms).
The stored charge ``q`` evolves by Coulomb counting, the same method the
paper says the RL agent must use to observe its charge-level state, because
the terminal voltage sags with current and is not a usable SoC indicator.

Sign convention (matches the paper): current ``i > 0`` discharges the pack,
``i < 0`` charges it.  Terminal power is positive when the pack supplies the
bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import ConfigurationError
from repro.vehicle.params import BatteryParams

ArrayLike = Union[float, np.ndarray]


@dataclass
class BatteryState:
    """Mutable charge state tracked by Coulomb counting."""

    charge: float
    """Charge stored in the pack, Coulombs."""

    def copy(self) -> "BatteryState":
        """Return an independent copy of this state."""
        return BatteryState(charge=self.charge)


class Battery:
    """Rint battery pack model with a charge-sustaining SoC window."""

    def __init__(self, params: BatteryParams):
        self._params = params

    @property
    def params(self) -> BatteryParams:
        """The battery parameter set this model was built from."""
        return self._params

    # --- state helpers ---------------------------------------------------------

    def initial_state(self, soc: float = 0.6) -> BatteryState:
        """Create a battery state at the given state of charge (fraction)."""
        if not 0.0 <= soc <= 1.0:
            raise ConfigurationError("initial SoC must be a fraction in [0, 1]")
        return BatteryState(charge=soc * self._params.capacity)

    def soc(self, state: BatteryState) -> float:
        """State of charge of ``state`` as a fraction of nominal capacity."""
        return state.charge / self._params.capacity

    @property
    def charge_min(self) -> float:
        """Lower bound ``q_min`` of the operating window, Coulombs."""
        return self._params.soc_min * self._params.capacity

    @property
    def charge_max(self) -> float:
        """Upper bound ``q_max`` of the operating window, Coulombs."""
        return self._params.soc_max * self._params.capacity

    # --- electrical model -------------------------------------------------------

    def open_circuit_voltage(self, soc: ArrayLike) -> ArrayLike:
        """Open-circuit voltage at a state of charge (fraction), V."""
        p = self._params
        soc = np.clip(np.asarray(soc, dtype=float), 0.0, 1.0)
        return p.voltage_at_empty + (p.voltage_at_full - p.voltage_at_empty) * soc

    def internal_resistance(self, current: ArrayLike) -> ArrayLike:
        """Internal resistance for the given current direction, Ohm."""
        p = self._params
        current = np.asarray(current, dtype=float)
        return np.where(current >= 0.0, p.discharge_resistance, p.charge_resistance)

    def terminal_power(self, current: ArrayLike, soc: ArrayLike) -> ArrayLike:
        """Power ``P_batt`` delivered to the DC bus at current ``i``, W.

        ``P_batt = V_oc(soc) * i - i^2 * R``.  Positive while discharging;
        during charging (``i < 0``) the value is negative and its magnitude is
        the bus power absorbed *plus* the resistive loss.
        """
        current = np.asarray(current, dtype=float)
        voc = self.open_circuit_voltage(soc)
        r = self.internal_resistance(current)
        return voc * current - r * current ** 2

    def current_for_power(self, power: ArrayLike, soc: ArrayLike) -> ArrayLike:
        """Invert :meth:`terminal_power`: current that delivers bus power ``power``.

        Solves ``V_oc i - R i^2 = P`` for the small root (the physical branch)
        with the appropriate directional resistance.  Discharge powers beyond
        the pack's maximum deliverable power (``V_oc^2 / 4R``) are clamped to
        the maximum-power current.  Returns current in A, sign per the pack
        convention.
        """
        power = np.asarray(power, dtype=float)
        voc = np.asarray(self.open_circuit_voltage(soc), dtype=float)
        p = self._params
        # Discharge branch (P >= 0, R = Rd): i = (Voc - sqrt(Voc^2 - 4 R P)) / 2R
        disc = voc ** 2 - 4.0 * p.discharge_resistance * np.maximum(power, 0.0)
        disc_current = np.where(
            disc >= 0.0,
            (voc - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * p.discharge_resistance),
            voc / (2.0 * p.discharge_resistance),
        )
        # Charge branch (P < 0, R = Rc): same quadratic, discriminant always > 0.
        chg = voc ** 2 - 4.0 * p.charge_resistance * np.minimum(power, 0.0)
        chg_current = (voc - np.sqrt(chg)) / (2.0 * p.charge_resistance)
        return np.where(power >= 0.0, disc_current, chg_current)

    # --- Coulomb counting --------------------------------------------------------

    def step(self, state: BatteryState, current: float, dt: float) -> BatteryState:
        """Advance the charge state by ``dt`` seconds at current ``current``.

        Discharging removes ``i * dt`` Coulombs; charging stores
        ``coulombic_efficiency * |i| * dt``.  The charge is clipped to the
        physical [0, capacity] range (the controller is responsible for
        keeping it inside the 40-80% operating window; clipping only guards
        against numerical overshoot).
        """
        if dt <= 0:
            raise ConfigurationError("time step must be positive")
        if current >= 0.0:
            delta = -current * dt
        else:
            delta = -current * dt * self._params.coulombic_efficiency
        charge = min(max(state.charge + delta, 0.0), self._params.capacity)
        return BatteryState(charge=charge)

    def clamp_current(self, current: ArrayLike) -> ArrayLike:
        """Clip a requested current into the pack's [-I_max, I_max] range."""
        p = self._params
        return np.clip(np.asarray(current, dtype=float), -p.max_current, p.max_current)

    def is_current_feasible(self, current: ArrayLike) -> ArrayLike:
        """True where the current magnitude respects the ``I_max`` bound."""
        current = np.asarray(current, dtype=float)
        return np.abs(current) <= self._params.max_current + 1e-9

    def window_violation(self, state: BatteryState) -> float:
        """Distance (Coulombs) outside the charge-sustaining window, 0 if inside."""
        if state.charge < self.charge_min:
            return self.charge_min - state.charge
        if state.charge > self.charge_max:
            return state.charge - self.charge_max
        return 0.0
