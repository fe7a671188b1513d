"""The five parallel-HEV operating modes (paper Section 2).

The paper enumerates five energy-flow modes; the solver adds an ``IDLE``
mode for standstill with the powertrain disengaged (auxiliaries still draw
from the battery) so that every simulated time step has a classification.
"""

from __future__ import annotations

import enum

import numpy as np


class OperatingMode(enum.IntEnum):
    """Energy-flow classification of one powertrain operating point."""

    IDLE = 0
    """Standstill: powertrain disengaged, auxiliaries on battery."""

    ICE_ONLY = 1
    """(i) Only the ICE propels the vehicle."""

    EM_ONLY = 2
    """(ii) Only the EM propels the vehicle."""

    HYBRID = 3
    """(iii) ICE and EM propel the vehicle together."""

    CHARGING = 4
    """(iv) The ICE propels the vehicle and drives the EM as a generator."""

    REGEN = 5
    """(v) The EM recovers braking energy (regenerative braking)."""


def classify(engine_torque: np.ndarray, motor_torque: np.ndarray,
             wheel_speed: np.ndarray, braking: np.ndarray,
             torque_tol: float = 1e-6) -> np.ndarray:
    """Vectorised mode classification from resolved component torques.

    ``braking`` marks steps whose demanded wheel torque is negative.  The
    returned array holds :class:`OperatingMode` integer values.
    """
    return classify_flags(engine_torque > torque_tol,
                          motor_torque > torque_tol,
                          motor_torque < -torque_tol,
                          wheel_speed <= 1e-9, braking)


def classify_flags(engine_on: np.ndarray, motoring: np.ndarray,
                   generating: np.ndarray, standstill: np.ndarray,
                   braking: np.ndarray) -> np.ndarray:
    """The mode rules of :func:`classify` over precomputed boolean flags.

    The solver tabulates these rules over every flag pattern of a moving,
    non-braking step, so they have this one implementation.
    """
    mode = np.full(np.shape(engine_on), int(OperatingMode.IDLE))
    mode = np.where(engine_on & ~motoring & ~generating,
                    int(OperatingMode.ICE_ONLY), mode)
    mode = np.where(~engine_on & motoring, int(OperatingMode.EM_ONLY), mode)
    mode = np.where(engine_on & motoring, int(OperatingMode.HYBRID), mode)
    mode = np.where(engine_on & generating, int(OperatingMode.CHARGING), mode)
    mode = np.where(braking & generating & ~engine_on,
                    int(OperatingMode.REGEN), mode)
    mode = np.where(standstill, int(OperatingMode.IDLE), mode)
    return mode
