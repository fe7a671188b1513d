"""Rule-based supervisory baseline (after Banvait et al., ACC'09 [5]).

The classic charge-depleting / charge-sustaining rule set the paper
compares against:

* **Braking** — regenerate as hard as the demand, machine envelope, and
  charge-current limit allow.
* **Low SoC** (below the charge threshold) — engine mode with a fixed
  charging current; auxiliaries shed to their floor when SoC is critical.
* **EV region** — below the electric-launch speed and power thresholds
  with sufficient SoC, drive electrically.
* **Otherwise** — engine mode near its efficient region: the battery
  assists above the assist-power threshold and trickle-charges when SoC is
  below target, while the gear is chosen to keep the crankshaft closest to
  the engine's sweet-spot speed.

Auxiliaries run at the driver-preferred draw except in the critical-SoC
shedding rule — the baseline does *not* co-optimise them, which is exactly
the behaviour the paper's joint controller improves upon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.control.base import Controller, gear_order
from repro.powertrain.solver import PowertrainSolver
from repro.rl.agent import ExecutedStep
from repro.rl.reward import RewardConfig, build_reward_function


@dataclass(frozen=True)
class RuleBasedConfig:
    """Thresholds of the rule set."""

    ev_speed_limit: float = 12.0
    """Electric-only launch allowed below this speed, m/s."""

    ev_power_limit: float = 9_000.0
    """Electric-only operation allowed below this demand, W."""

    assist_power_threshold: float = 14_000.0
    """Demand above which the battery assists the engine, W."""

    assist_current: float = 30.0
    """Discharge current used when assisting, A."""

    charge_current: float = -18.0
    """Charging current used in charge-sustaining mode, A."""

    soc_charge_threshold: float = 0.52
    """Below this SoC the engine trickle-charges the pack."""

    soc_critical: float = 0.44
    """Below this SoC the auxiliaries shed to their floor and charging is
    forced."""

    soc_ev_minimum: float = 0.50
    """Electric-only operation requires at least this SoC."""

    shift_speeds: tuple = (4.0, 8.5, 13.0, 18.5)
    """Up-shift vehicle speeds, m/s: gear k is preferred between
    ``shift_speeds[k-1]`` and ``shift_speeds[k]`` — the fixed shift schedule
    typical of production rule-based controllers (they shift by speed, not
    by searching the fuel map)."""

    def __post_init__(self) -> None:
        if not (0 < self.soc_critical < self.soc_charge_threshold < 1):
            raise ValueError("SoC thresholds out of order")
        if self.charge_current >= 0:
            raise ValueError("charge current must be negative")
        if self.assist_current <= 0:
            raise ValueError("assist current must be positive")


class RuleBasedController(Controller):
    """Deterministic threshold-rule supervisory controller."""

    def __init__(self, solver: PowertrainSolver,
                 config: Optional[RuleBasedConfig] = None,
                 reward_config: Optional[RewardConfig] = None):
        """``reward_config`` only affects the *reported* reward (so baselines
        and the RL agent are scored identically); it never drives decisions."""
        self.solver = solver
        self.config = config or RuleBasedConfig()
        self.reward = build_reward_function(solver, reward_config)
        self._preferred_aux = solver.auxiliary.utility.argmax(
            solver.auxiliary.max_power)

    # ------------------------------------------------------------- decision ---

    def _target_current(self, p_dem: float, speed: float, soc: float) -> float:
        """Apply the threshold rules; returns the commanded current, A."""
        cfg = self.config
        battery = self.solver.battery
        if p_dem < 0.0:
            # Brake: command maximal regeneration; the solver saturates it
            # against the demand, the envelope, and the current limit.
            return -battery.params.max_current
        if soc <= cfg.soc_critical:
            return cfg.charge_current
        if (speed <= cfg.ev_speed_limit and p_dem <= cfg.ev_power_limit
                and soc >= cfg.soc_ev_minimum):
            # EV mode: discharge enough to carry demand plus auxiliaries.
            est_power = p_dem / 0.72 + self._preferred_aux
            return float(battery.clamp_current(
                battery.current_for_power(est_power, soc)))
        if p_dem >= cfg.assist_power_threshold:
            return cfg.assist_current
        if soc <= cfg.soc_charge_threshold:
            return cfg.charge_current
        return 0.0

    def _aux_power(self, soc: float) -> float:
        """Auxiliary rule: preferred draw, shed to floor at critical SoC."""
        if soc <= self.config.soc_critical:
            return self.solver.auxiliary.min_power
        return self._preferred_aux

    def act(self, speed: float, acceleration: float, soc: float, dt: float,
            grade: float = 0.0, learn: bool = True,
            greedy: bool = False) -> ExecutedStep:
        """Apply the threshold rules and execute in the scheduled gear."""
        p_dem = float(self.solver.dynamics.power_demand(speed, acceleration,
                                                        grade))
        current = self._target_current(p_dem, speed, soc)
        aux = self._aux_power(soc)
        order = gear_order(self.config.shift_speeds,
                           self.solver.transmission.num_gears, speed)

        # Evaluate the rule's current in every gear at once; execute the
        # first feasible gear in sweet-spot order.  If the rule current
        # cannot meet demand anywhere, escalate the assist current before
        # falling back to the least-bad point.
        candidates = [current, self.config.assist_current,
                      self.solver.battery.params.max_current]
        for cand in candidates:
            batch = self.solver.evaluate_actions(
                speed, acceleration, soc,
                np.full(len(order), cand), order,
                np.full(len(order), aux), dt, grade)
            chosen = batch.first_feasible()
            if chosen is not None:
                break
        return ExecutedStep.of_row(batch, chosen, self.reward, soc, dt, p_dem)
