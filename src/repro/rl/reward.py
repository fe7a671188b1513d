"""The joint reward function (paper Section 4.3.3).

    r = (-mdot_f + w * f_aux(p_aux)) * dT

Fuel rate enters negatively (the agent minimises consumption), auxiliary
utility positively, coupled by the weighting factor ``w``.  Because the
reward must also keep the battery inside its charge-sustaining window, a
soft quadratic penalty on window violations is added — the standard device
for encoding the paper's hard state constraint in a tabular learner (the
solver additionally marks window-leaving actions infeasible, so the penalty
only fires on the slack band and fallback steps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.vehicle.auxiliary import UtilityFunction

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class RewardConfig:
    """Weights of the joint reward."""

    aux_weight: float = 0.3
    """The paper's ``w``: relative importance of auxiliary utility versus
    fuel rate.  With fuel in g/s (cruise ~0.5-2.5 g/s) and utility in [~-4, 1],
    w = 0.3 makes the two terms comparable, matching the magnitude of the
    paper's Table 2 cumulative rewards."""

    window_penalty: float = 10.0
    """Quadratic penalty coefficient on SoC-window violation (per unit
    squared fraction of capacity, per second)."""

    shortfall_penalty: float = 0.05
    """Penalty per N*m of undelivered shaft torque per second — only nonzero
    on pathological fallback steps where no action meets the demand."""

    soc_price: Optional[float] = None
    """Fuel-equivalent price of battery charge in grams per unit SoC
    fraction.  The learning reward adds ``soc_price * (soc_next - soc)``
    each step, so draining the pack is charged (and banking charge is
    credited) at the engine's average fuel-to-electricity conversion rate —
    the shaping that makes a finite-horizon learner charge-sustaining.
    ``None`` derives the price from the battery pack and fuel properties via
    :func:`default_soc_price`."""

    adaptive_price_gain: float = 0.0
    """Per-episode adaptation gain of the SoC price (grams per unit SoC of
    final-SoC error), in the style of adaptive-ECMS:
    ``price -= gain * (soc_final - soc_target)`` after each training
    episode.  Disabled (0) by default: the outer loop couples with the
    Q-table's own adaptation and oscillates — a higher price teaches the
    agent to bank charge, which drops the price, which teaches draining,
    and the moving reward keeps the table from settling.  Kept as an
    explicit knob because the failure mode itself is instructive (and the
    ablation benches can demonstrate it)."""

    soc_target: float = 0.60
    """Final SoC the adaptive pricing regulates toward (fraction)."""

    price_bounds: tuple = (250.0, 750.0)
    """Clamp on the adapted SoC price, g per unit SoC."""

    def __post_init__(self) -> None:
        if self.adaptive_price_gain < 0:
            raise ConfigurationError("adaptation gain cannot be negative")
        if not 0 < self.soc_target < 1:
            raise ConfigurationError("SoC target must be a fraction")
        if not 0 < self.price_bounds[0] < self.price_bounds[1]:
            raise ConfigurationError("price bounds out of order")
        if self.aux_weight < 0:
            raise ConfigurationError("aux weight cannot be negative")
        if self.window_penalty < 0 or self.shortfall_penalty < 0:
            raise ConfigurationError("penalties cannot be negative")
        if self.soc_price is not None and self.soc_price < 0:
            raise ConfigurationError("SoC price cannot be negative")


def default_soc_price(capacity: float, nominal_voltage: float,
                      fuel_energy_density: float,
                      conversion_efficiency: float = 0.33) -> float:
    """Fuel-equivalent value of one full unit of SoC, grams.

    ``capacity`` in Coulombs and ``nominal_voltage`` in V give the pack
    energy; dividing by the engine's average fuel-to-electricity conversion
    chain efficiency and the fuel energy density converts it to grams.
    """
    if capacity <= 0 or nominal_voltage <= 0:
        raise ConfigurationError("pack energy must be positive")
    if not 0 < conversion_efficiency <= 1:
        raise ConfigurationError("conversion efficiency must be in (0, 1]")
    return (capacity * nominal_voltage
            / (conversion_efficiency * fuel_energy_density))


class RewardFunction:
    """Computes the per-step joint reward for scalar or batched inputs."""

    def __init__(self, utility: UtilityFunction, config: RewardConfig,
                 soc_min: float, soc_max: float, soc_price: float = 0.0):
        """``soc_price`` (g per unit SoC) is used when the config leaves its
        own ``soc_price`` as None; pass the :func:`default_soc_price` of the
        simulated pack for charge-sustaining shaping."""
        self._utility = utility
        self._config = config
        self._soc_min = soc_min
        self._soc_max = soc_max
        self._soc_price = (config.soc_price if config.soc_price is not None
                           else soc_price)

    @property
    def config(self) -> RewardConfig:
        """The weight configuration."""
        return self._config

    def window_violation(self, soc: ArrayLike) -> ArrayLike:
        """Fractional distance outside the [soc_min, soc_max] window (>= 0)."""
        soc = np.asarray(soc, dtype=float)
        below = np.maximum(self._soc_min - soc, 0.0)
        above = np.maximum(soc - self._soc_max, 0.0)
        return below + above

    @property
    def soc_price(self) -> float:
        """Active fuel-equivalent price of charge, g per unit SoC."""
        return self._soc_price

    def set_soc_price(self, price: float) -> None:
        """Pin the active SoC price (checkpoint restore of the adaptive
        outer loop's state)."""
        if price < 0:
            raise ConfigurationError("SoC price cannot be negative")
        self._soc_price = float(price)

    def adapt_price(self, final_soc: float) -> float:
        """Adaptive-ECMS-style outer loop: move the SoC price against the
        final-SoC error and return the new price.

        A drive that banked charge (final above target) means charging was
        over-credited, so the price drops; a drained pack raises it.  The
        price is clamped to the configured bounds.
        """
        c = self._config
        if c.adaptive_price_gain > 0:
            lo, hi = c.price_bounds
            self._soc_price = float(np.clip(
                self._soc_price
                - c.adaptive_price_gain * (final_soc - c.soc_target),
                lo, hi))
        return self._soc_price

    def aux_term(self, aux_power: ArrayLike) -> ArrayLike:
        """The utility term ``w * f_aux(p_aux)`` of the reward.

        It depends on the draw alone, so a caller with a fixed candidate
        grid computes it once and passes it back as ``aux_term``.  Compute
        it from the same kind of operand the reward will see: a scalar
        draw goes through numpy's scalar ``** 2`` (libm ``pow``), an array
        through the array kernel, and the two can differ in the last bit.
        """
        return self._config.aux_weight * np.asarray(self._utility(aux_power),
                                                    dtype=float)

    def __call__(self, fuel_rate: ArrayLike, aux_power: ArrayLike, dt: float,
                 soc_next: ArrayLike = None, soc_prev: ArrayLike = None,
                 shortfall: ArrayLike = 0.0,
                 aux_term: ArrayLike = None) -> ArrayLike:
        """Per-step learning reward (dimensionally: grams-of-fuel-equivalent).

        ``fuel_rate`` in g/s, ``aux_power`` in W, ``dt`` in s.  ``soc_next``
        (fraction) activates the window penalty; passing ``soc_prev`` as well
        adds the charge-sustaining shaping term
        ``soc_price * (soc_next - soc_prev)``; ``shortfall`` (N*m) activates
        the demand-miss penalty.  Note the shaping term is *not* multiplied
        by dt — it prices the actual charge moved during the step.
        ``aux_term`` is :meth:`aux_term` of ``aux_power``, when the caller
        already holds it.
        """
        c = self._config
        if aux_term is None:
            aux_term = self.aux_term(aux_power)
        base = -np.asarray(fuel_rate, dtype=float) + aux_term
        penalty = np.asarray(shortfall, dtype=float) * c.shortfall_penalty
        if soc_next is not None:
            penalty = penalty + c.window_penalty * self.window_violation(
                soc_next) ** 2
        reward = (base - penalty) * dt
        if soc_next is not None and soc_prev is not None:
            reward = reward + self._soc_price * (
                np.asarray(soc_next, dtype=float)
                - np.asarray(soc_prev, dtype=float))
        return reward

    def paper_reward(self, fuel_rate: ArrayLike, aux_power: ArrayLike,
                     dt: float, aux_term: ArrayLike = None) -> ArrayLike:
        """The unpenalised reward exactly as printed in the paper's Table 2:
        ``(-mdot_f + w * f_aux(p_aux)) * dT``.  ``aux_term`` is
        :meth:`aux_term` of ``aux_power``, when the caller already holds
        it; a float ``fuel_rate`` then stays in plain float arithmetic."""
        if aux_term is None:
            fuel_rate = np.asarray(fuel_rate, dtype=float)
            aux_term = self.aux_term(aux_power)
        return (-fuel_rate + aux_term) * dt


def build_reward_function(solver, config: Optional[RewardConfig] = None
                          ) -> RewardFunction:
    """Build a :class:`RewardFunction` wired to a powertrain solver.

    Derives the charge-sustaining SoC price from the solver's battery pack
    and fuel properties (unless the config pins an explicit price).  All
    controllers score their steps through a function built here so the
    comparisons in the benches are apples-to-apples.
    """
    config = config or RewardConfig()
    battery = solver.params.battery
    nominal_voltage = float(solver.battery.open_circuit_voltage(
        0.5 * (battery.soc_min + battery.soc_max)))
    price = default_soc_price(battery.capacity, nominal_voltage,
                              solver.engine.fuel_energy_density)
    return RewardFunction(solver.auxiliary.utility, config,
                          battery.soc_min, battery.soc_max, soc_price=price)
