"""Auxiliary systems: loads and the quasi-concave utility function (Sec. 2.1.5).

The auxiliary system (HVAC, lighting, GPS, other electronics) draws power
``p_aux`` from the DC bus.  Its desirability is a uni-modal *utility
function* ``f_aux(p_aux)``: maximal at the preferred draw (600 W in the
paper's experiments) and falling off on both sides, because for an HVAC too
little power means discomfort and too much means over-conditioning.  The
joint controller trades this utility against fuel through the reward
``(-mdot_f + w * f_aux(p_aux)) * dT``.

Besides the composite system the module models individual loads so the
examples can assemble realistic auxiliary profiles (a headlight bank that is
either on or off, an HVAC whose draw scales with thermal demand, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, InfeasibleActionError
from repro.vehicle.params import AuxiliaryParams

ArrayLike = Union[float, np.ndarray]


class UtilityFunction:
    """Quasi-concave utility of auxiliary operating power.

    ``f(p) = peak - ((p - p*) / width)^2`` — a downward parabola centred on
    the preferred power ``p*``.  The shape satisfies every property the paper
    requires: uni-modal, maximal at ``p*``, decreasing on both sides, and
    cheap enough that the reduced-action-space inner optimisation can
    maximise it in closed form.
    """

    def __init__(self, params: AuxiliaryParams):
        self._params = params

    @property
    def params(self) -> AuxiliaryParams:
        """The auxiliary parameter set this utility was built from."""
        return self._params

    def __call__(self, power: ArrayLike) -> ArrayLike:
        """Utility value of operating the auxiliaries at ``power`` watts."""
        p = self._params
        power = np.asarray(power, dtype=float)
        return p.utility_peak - ((power - p.preferred_power) / p.utility_width) ** 2

    def argmax(self, power_cap: float) -> float:
        """Power in [min_power, min(max_power, power_cap)] with maximal utility.

        Because the utility is concave the answer is the preferred power
        clipped into the admissible interval.  Raises if the cap is below the
        safety-critical floor.
        """
        p = self._params
        hi = min(p.max_power, power_cap)
        if hi < p.min_power:
            raise InfeasibleActionError(
                "power cap below the safety-critical auxiliary floor")
        return float(np.clip(p.preferred_power, p.min_power, hi))


@dataclass(frozen=True)
class AuxiliaryLoad:
    """One physical auxiliary load contributing to the composite demand."""

    name: str
    """Human-readable label (e.g. ``"headlights"``)."""

    nominal_power: float
    """Draw when fully on, W."""

    sheddable: bool = True
    """Whether the controller may reduce this load below nominal."""

    def __post_init__(self) -> None:
        if self.nominal_power < 0:
            raise ConfigurationError("load power cannot be negative")


def default_loads() -> Sequence[AuxiliaryLoad]:
    """A representative mid-size-car auxiliary load set (sums to ~1.5 kW)."""
    return (
        AuxiliaryLoad("hvac", 900.0, sheddable=True),
        AuxiliaryLoad("headlights", 120.0, sheddable=False),
        AuxiliaryLoad("infotainment", 60.0, sheddable=True),
        AuxiliaryLoad("ecu_and_sensors", 80.0, sheddable=False),
        AuxiliaryLoad("seat_heating", 200.0, sheddable=True),
        AuxiliaryLoad("defroster", 140.0, sheddable=True),
    )


class AuxiliarySystem:
    """Composite auxiliary system: load set, limits, and utility.

    The controller treats ``p_aux`` as one continuous control variable; the
    load set documents where the floor (non-sheddable loads) and ceiling
    (every load at nominal plus headroom) come from, and lets examples build
    scenario-specific systems.
    """

    def __init__(self, params: AuxiliaryParams,
                 loads: Sequence[AuxiliaryLoad] = ()):
        self._params = params
        self._loads = tuple(loads) if loads else tuple(default_loads())
        self._utility = UtilityFunction(params)
        floor = sum(l.nominal_power for l in self._loads if not l.sheddable)
        if floor > params.max_power:
            raise ConfigurationError("non-sheddable loads exceed the auxiliary power cap")
        self._min_power = max(params.min_power, floor)

    @property
    def params(self) -> AuxiliaryParams:
        """The auxiliary parameter set."""
        return self._params

    @property
    def loads(self) -> Sequence[AuxiliaryLoad]:
        """The physical loads composing this system."""
        return self._loads

    @property
    def utility(self) -> UtilityFunction:
        """The utility function the controller maximises."""
        return self._utility

    @property
    def min_power(self) -> float:
        """Smallest admissible draw, W: the configured floor or the
        non-sheddable load sum, whichever is larger."""
        return self._min_power

    @property
    def max_power(self) -> float:
        """Largest admissible draw, W."""
        return self._params.max_power

    def clamp(self, power: ArrayLike) -> ArrayLike:
        """Clip a requested draw into the admissible [min_power, max_power]."""
        return np.clip(np.asarray(power, dtype=float), self.min_power, self.max_power)

    def power_levels(self, count: int) -> np.ndarray:
        """``count`` evenly spaced admissible power levels (for the full
        action space, which needs a discretised ``P_aux`` set)."""
        if count < 1:
            raise ConfigurationError("need at least one level")
        if count == 1:
            return np.asarray([self._utility.argmax(self.max_power)])
        return np.linspace(self.min_power, self.max_power, count)
