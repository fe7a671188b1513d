"""Physical feasibility envelope the supervisor validates actions against.

The envelope is the contract between *any* controller and the plant: the
battery current magnitude bound, the discrete gear range, the auxiliary
power band, the charge-sustaining SoC window, and plain finiteness.  A
well-behaved controller that routes its actions through the solver never
violates it — the envelope exists for the controllers that misbehave
(diverged Q-tables proposing garbage, third-party controllers skipping
solver saturation, faulted plants whose limits shifted under the
controller's feet).

Limits are read *live* from the solver rather than frozen at
construction, because plant faults mutate the shared solver in place
mid-episode (capacity fade shrinks the pack, a derate lowers the current
bound); a frozen envelope would validate against a vehicle that no longer
exists.  Such a rebuild re-runs the solver's ``__init__``, which takes a
new configuration epoch, so the envelope re-reads its limits whenever the
epoch moves (as the solver's action-grid workspaces re-derive theirs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.powertrain.solver import PowertrainSolver, _WINDOW_SLACK

_TOL = 1e-6
"""Absolute slack on the continuous bounds: solver round-off must not be
reported as a violation."""


@dataclass(frozen=True)
class EnvelopeLimits:
    """One snapshot of the live plant limits."""

    max_current: float
    """Battery current magnitude bound, A."""

    num_gears: int
    """Selectable gears (valid 0-based indices are ``0..num_gears-1``)."""

    aux_min: float
    """Auxiliary power floor (non-sheddable loads), W."""

    aux_max: float
    """Auxiliary power cap, W."""

    soc_lo: float
    """Lower admissible post-step SoC (window minus solver slack)."""

    soc_hi: float
    """Upper admissible post-step SoC (window plus solver slack)."""


@dataclass(frozen=True)
class Substitute:
    """A fully resolved replacement action (one solver batch row)."""

    current: float
    """Executed battery current, A."""

    gear: int
    """Executed 0-based gear index."""

    aux_power: float
    """Executed auxiliary draw, W."""

    fuel_rate: float
    """Fuel mass-flow of the substituted step, g/s."""

    soc_next: float
    """Post-step state of charge under the substitute (fraction)."""

    shortfall: float
    """Undelivered shaft torque, N*m."""

    feasible: bool
    """Whether the substitute is fully feasible (False when even the
    fallback ladder could only minimise the violation)."""

    mode: int
    """Operating-mode classification of the substituted point."""


class FeasibilityEnvelope:
    """Validates executed steps and substitutes nearest-feasible actions."""

    def __init__(self, solver: PowertrainSolver):
        self._solver = solver
        self._limits = None
        self._epoch = None

    def limits(self) -> EnvelopeLimits:
        """The current plant limits of the (possibly faulted) solver."""
        solver = self._solver
        if self._epoch != solver._epoch:
            battery = solver.params.battery
            aux = solver.auxiliary
            self._limits = EnvelopeLimits(
                max_current=float(battery.max_current),
                num_gears=int(solver.transmission.num_gears),
                aux_min=float(aux.min_power),
                aux_max=float(aux.max_power),
                soc_lo=float(battery.soc_min - _WINDOW_SLACK),
                soc_hi=float(battery.soc_max + _WINDOW_SLACK))
            self._epoch = solver._epoch
        return self._limits

    # ------------------------------------------------------------- checking ---

    def check(self, current: float, gear: int, aux_power: float,
              soc_next: float) -> List[Tuple[str, str]]:
        """Violations of one executed action as ``(kind, detail)`` pairs.

        An empty list means the action is inside the envelope and the
        supervisor passes the step through untouched.
        """
        lim = self.limits()
        violations: List[Tuple[str, str]] = []
        if not (math.isfinite(current) and math.isfinite(aux_power)
                and math.isfinite(soc_next)):
            violations.append((
                "nonfinite_action",
                f"current={current!r}, aux={aux_power!r}, "
                f"soc_next={soc_next!r}"))
            return violations
        if abs(current) > lim.max_current + _TOL:
            violations.append((
                "current_limit",
                f"|{current:.1f} A| exceeds the {lim.max_current:.1f} A "
                f"pack bound"))
        if not 0 <= int(gear) < lim.num_gears:
            violations.append((
                "gear_range",
                f"gear {gear} outside 0..{lim.num_gears - 1}"))
        if not lim.aux_min - _TOL <= aux_power <= lim.aux_max + _TOL:
            violations.append((
                "aux_limit",
                f"p_aux={aux_power:.0f} W outside "
                f"[{lim.aux_min:.0f}, {lim.aux_max:.0f}] W"))
        if not lim.soc_lo - _TOL <= soc_next <= lim.soc_hi + _TOL:
            violations.append((
                "soc_window",
                f"post-step SoC {soc_next:.3f} outside "
                f"[{lim.soc_lo:.3f}, {lim.soc_hi:.3f}]"))
        return violations

    def window_violation(self, soc_next: np.ndarray) -> np.ndarray:
        """Distance of each post-step SoC outside the slackened window."""
        lim = self.limits()
        soc_next = np.asarray(soc_next, dtype=float)
        return np.maximum(0.0, np.maximum(lim.soc_lo - soc_next,
                                          soc_next - lim.soc_hi))

    # --------------------------------------------------------- substitution ---

    def clamp(self, current: float, gear: int, aux_power: float,
              derate: float = 1.0) -> Tuple[float, int, float]:
        """Project an action onto the (optionally derated) envelope box.

        Non-finite components collapse to the safest member of their range
        (zero current, lowest gear, auxiliary floor).
        """
        lim = self.limits()
        i_max = lim.max_current * float(np.clip(derate, 0.0, 1.0))
        c = float(np.clip(current, -i_max, i_max)) if np.isfinite(current) \
            else 0.0
        try:
            g = int(gear)
        except (TypeError, ValueError, OverflowError):
            g = 0
        g = int(np.clip(g, 0, lim.num_gears - 1))
        a = float(np.clip(aux_power, lim.aux_min, lim.aux_max)) \
            if np.isfinite(aux_power) else lim.aux_min
        return c, g, a

    def resolve(self, speed: float, acceleration: float, soc: float,
                dt: float, grade: float, current: float, gear: int,
                aux_power: float, derate: float = 1.0) -> Substitute:
        """Nearest-feasible substitute for a rejected action.

        Clamps the action into the (derated) envelope box, then evaluates a
        small ladder of fallback currents stepping from the clamped intent
        toward zero and gentle charging — the direction that relieves both
        discharge-side window violations and pack-limit violations.  The
        executed point is the feasible candidate closest to the intent, or
        failing that the candidate with the smallest SoC-window excursion
        and torque shortfall.
        """
        c, g, a = self.clamp(current, gear, aux_power, derate)
        lim = self.limits()
        i_max = lim.max_current * float(np.clip(derate, 0.0, 1.0))
        ladder = np.unique(np.asarray(
            [c, 0.5 * c, 0.0, -0.25 * i_max, -0.5 * i_max], dtype=float))
        batch = self._solver.evaluate_actions(
            speed, acceleration, soc, ladder,
            np.full(len(ladder), g, dtype=int),
            np.full(len(ladder), a, dtype=float), dt, grade)
        feasible = np.nonzero(batch.feasible)[0]
        if len(feasible):
            # Among feasible candidates, stay closest to the intent.
            idx = int(feasible[np.argmin(np.abs(ladder[feasible] - c))])
        else:
            score = (np.asarray(self.window_violation(batch.soc_next)) * 1e3
                     + np.where(batch.meets_demand, 0.0, 1e6)
                     + batch.shortfall)
            idx = int(np.argmin(score))
        return Substitute(
            current=float(batch.battery_current[idx]),
            gear=int(batch.gear[idx]),
            aux_power=float(batch.aux_power[idx]),
            fuel_rate=float(batch.fuel_rate[idx]),
            soc_next=float(batch.soc_next[idx]),
            shortfall=float(batch.shortfall[idx]),
            feasible=bool(batch.feasible[idx]),
            mode=int(batch.mode[idx]))
