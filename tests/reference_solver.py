"""Frozen reference implementations of the powertrain solver.

This module pins the pre-refactor (seed) semantics of
:class:`repro.powertrain.solver.PowertrainSolver` so the optimised
struct-of-arrays kernel can be proven equivalent forever:

* :class:`ReferencePowertrainSolver` — the seed ``evaluate_actions`` /
  ``_moving`` / ``_standstill`` bodies, verbatim, operating on the same
  component models (engine, motor, battery, transmission, dynamics).  The
  golden equivalence suite (``tests/test_vectorized_equivalence.py``)
  compares every optimised result against this class.
* :class:`ScalarReferenceSolver` — the same physics driven one action at a
  time through single-element batches.  This is the "scalar path" the
  kernel speedup gate (``tests/test_bench_gates.py``) measures as its
  *before* figure: what evaluating the action grid costs without any
  batching at all.

Neither class is used by the package; they exist for verification.  Do
**not** "optimise" this file — its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.powertrain.modes import classify
from repro.powertrain.operating_point import BatchResult
from repro.powertrain.solver import (
    PowertrainSolver,
    _SPEED_TOL,
    _TORQUE_TOL,
    _WINDOW_EDGE_TOL,
    _WINDOW_SLACK,
)


class ReferencePowertrainSolver(PowertrainSolver):
    """Seed (pre-refactor) solver semantics, kept verbatim for golden tests."""

    def evaluate_grid(self, workspace, speed, acceleration, soc, dt,
                      grade=0.0) -> BatchResult:
        """Route workspace callers through the frozen path.

        Controllers holding a persistent :class:`ActionGridWorkspace`
        (the RL agent) call ``evaluate_grid``; on a reference solver that
        must exercise the *seed* physics code, re-allocating per call as
        the pre-refactor implementation did.  Only the raw action arrays
        are read from the workspace — none of its precomputed statics.
        """
        if workspace.solver is not self:
            raise ConfigurationError(
                "workspace is bound to a different solver")
        return self.evaluate_actions(speed, acceleration, soc,
                                     workspace.currents, workspace.gears,
                                     workspace.aux, dt, grade)

    def evaluate_actions(self, speed, acceleration, soc, currents, gears,
                         aux_powers, dt, grade=0.0) -> BatchResult:
        """Resolve a batch of candidate actions (seed implementation)."""
        currents = np.asarray(currents, dtype=float)
        gears = np.asarray(gears, dtype=int)
        aux = np.asarray(aux_powers, dtype=float)
        if not (len(currents) == len(gears) == len(aux)):
            raise ConfigurationError(
                "action component arrays must be index-aligned")
        if dt <= 0:
            raise ConfigurationError("time step must be positive")

        wheel_speed = float(self.dynamics.wheel_speed(speed))
        wheel_torque = float(self.dynamics.wheel_torque(speed, acceleration,
                                                        grade))
        p_dem = float(self.dynamics.power_demand(speed, acceleration, grade))

        if wheel_speed <= _SPEED_TOL:
            return self._reference_standstill(p_dem, currents, gears, aux,
                                              soc, dt)
        return self._reference_moving(wheel_speed, wheel_torque, p_dem,
                                      currents, gears, aux, soc, dt)

    # ------------------------------------------------------------ internals ---

    def _soc_after(self, currents: np.ndarray, soc: float,
                   dt: float) -> np.ndarray:
        """Post-step SoC (fraction) for each actual current (seed code)."""
        p = self.params.battery
        delta = np.where(currents >= 0.0, -currents * dt,
                         -currents * dt * p.coulombic_efficiency)
        charge = soc * p.capacity + delta
        return np.clip(charge / p.capacity, 0.0, 1.0)

    def _window_ok(self, soc_next: np.ndarray) -> np.ndarray:
        """True where the post-step SoC stays inside the slackened window."""
        p = self.params.battery
        return ((soc_next >= p.soc_min - _WINDOW_SLACK - _WINDOW_EDGE_TOL)
                & (soc_next <= p.soc_max + _WINDOW_SLACK + _WINDOW_EDGE_TOL))

    def _reference_standstill(self, p_dem: float, currents: np.ndarray,
                              gears: np.ndarray, aux: np.ndarray, soc: float,
                              dt: float) -> BatchResult:
        """Seed disengaged-powertrain case (v = 0), verbatim."""
        n = len(currents)
        i_act = np.asarray(self.battery.current_for_power(aux, soc),
                           dtype=float)
        i_act = self.battery.clamp_current(i_act)
        p_batt = np.asarray(self.battery.terminal_power(i_act, soc),
                            dtype=float)
        soc_next = self._soc_after(i_act, soc, dt)
        window = self._window_ok(soc_next)
        zeros = np.zeros(n)
        meets = np.ones(n, dtype=bool)
        feasible = window & meets
        mode = classify(zeros, zeros, np.zeros(n), np.zeros(n, dtype=bool))
        return BatchResult(
            feasible=feasible, mode=mode, power_demand=p_dem, wheel_speed=0.0,
            wheel_torque=0.0, gear=gears.copy(), engine_speed=zeros.copy(),
            engine_torque=zeros.copy(), motor_speed=zeros.copy(),
            motor_torque=zeros.copy(), battery_current=i_act,
            battery_power=p_batt, aux_power=aux.copy(), fuel_rate=zeros.copy(),
            brake_torque=zeros.copy(), meets_demand=meets, window_ok=window,
            soc_next=soc_next, shortfall=zeros.copy())

    def _reference_moving(self, wheel_speed: float, wheel_torque: float,
                          p_dem: float, currents: np.ndarray,
                          gears: np.ndarray, aux: np.ndarray, soc: float,
                          dt: float) -> BatchResult:
        """Seed engaged-powertrain case (v > 0), verbatim."""
        trans = self.transmission

        omega_eng = np.asarray(trans.engine_speed(wheel_speed, gears),
                               dtype=float)
        omega_mot = np.asarray(trans.motor_speed(wheel_speed, gears),
                               dtype=float)
        t_shaft_req = np.asarray(
            trans.required_shaft_torque(wheel_torque, gears), dtype=float)

        motor_speed_ok = omega_mot <= self.params.motor.max_speed + 1e-9
        engine_can_run = ((omega_eng >= self._engine_min_speed)
                          & (omega_eng <= self._engine_max_speed))

        # Commanded EM torque from the commanded current (the "intent").
        i_cmd = np.asarray(self.battery.clamp_current(currents), dtype=float)
        p_batt_cmd = np.asarray(self.battery.terminal_power(i_cmd, soc),
                                dtype=float)
        p_em_cmd = p_batt_cmd - aux
        t_em_cmd = np.asarray(
            self.motor.torque_from_electrical_power(p_em_cmd, omega_mot),
            dtype=float)
        t_em_lim = np.asarray(self.motor.max_torque(omega_mot), dtype=float)
        t_em = np.clip(t_em_cmd, -t_em_lim, t_em_lim)

        braking = t_shaft_req < 0.0
        t_em_demand = np.asarray(
            trans.motor_torque_from_shaft(t_shaft_req), dtype=float)

        # --- braking: engine declutched, regen bounded by demand and envelope
        t_em_brk = np.clip(t_em, np.maximum(-t_em_lim, t_em_demand), 0.0)

        # --- motoring: engine makes up the remainder, cannot absorb surplus
        shaft_from_em = np.asarray(trans.motor_torque_at_shaft(t_em),
                                   dtype=float)
        t_ice_raw = t_shaft_req - shaft_from_em
        t_ice_max = np.asarray(self.engine.max_torque(omega_eng), dtype=float)
        ev_only = (~engine_can_run) | (t_ice_raw <= _TORQUE_TOL)
        t_em_ev = np.clip(t_em_demand, -t_em_lim, t_em_lim)
        ev_meets = np.abs(t_em_ev - t_em_demand) <= _TORQUE_TOL
        t_ice_mot = np.clip(t_ice_raw, 0.0, t_ice_max)
        eng_meets = t_ice_raw <= t_ice_max + _TORQUE_TOL

        t_em_final = np.where(braking, t_em_brk,
                              np.where(ev_only, t_em_ev, t_em))
        t_ice_final = np.where(braking | ev_only, 0.0, t_ice_mot)
        meets = np.where(braking, True, np.where(ev_only, ev_meets, eng_meets))
        meets = meets & motor_speed_ok
        engine_off = t_ice_final <= _TORQUE_TOL
        omega_eng_final = np.where(engine_off, 0.0, omega_eng)

        delivered_shaft = (t_ice_final
                           + np.asarray(trans.motor_torque_at_shaft(t_em_final),
                                        dtype=float))
        shortfall = np.where(braking, 0.0,
                             np.maximum(t_shaft_req - delivered_shaft, 0.0))
        shortfall = np.where(motor_speed_ok, shortfall, np.abs(t_shaft_req))

        # Actual electrical balance after saturation.
        p_em_act = np.asarray(
            self.motor.electrical_power(t_em_final, omega_mot), dtype=float)
        p_batt_act = p_em_act + aux
        i_act = np.asarray(self.battery.current_for_power(p_batt_act, soc),
                           dtype=float)
        over_chg = i_act < -self.params.battery.max_current
        if np.any(over_chg):
            i_clamped = self.battery.clamp_current(i_act)
            p_batt_lim = np.asarray(
                self.battery.terminal_power(i_clamped, soc), dtype=float)
            p_em_lim = p_batt_lim - aux
            t_em_lim_chg = np.asarray(
                self.motor.torque_from_electrical_power(p_em_lim, omega_mot),
                dtype=float)
            t_em_final = np.where(over_chg,
                                  np.clip(t_em_lim_chg, -t_em_lim, 0.0),
                                  t_em_final)
            p_em_act = np.asarray(
                self.motor.electrical_power(t_em_final, omega_mot),
                dtype=float)
            p_batt_act = p_em_act + aux
            i_act = np.asarray(self.battery.current_for_power(p_batt_act, soc),
                               dtype=float)
        current_ok = np.asarray(self.battery.is_current_feasible(i_act))
        i_act = np.asarray(self.battery.clamp_current(i_act), dtype=float)
        p_batt_check = np.asarray(self.battery.terminal_power(i_act, soc),
                                  dtype=float)
        power_ok = np.abs(p_batt_check - p_batt_act) <= np.maximum(
            50.0, 0.02 * np.abs(p_batt_act))
        starved = (~power_ok) & (t_em_final > 0.0)
        if np.any(starved):
            p_em_avail = p_batt_check - aux
            t_em_avail = np.clip(np.asarray(
                self.motor.torque_from_electrical_power(p_em_avail, omega_mot),
                dtype=float), 0.0, t_em_lim)
            t_em_final = np.where(starved,
                                  np.minimum(t_em_final, t_em_avail),
                                  t_em_final)
            p_em_act = np.asarray(
                self.motor.electrical_power(t_em_final, omega_mot),
                dtype=float)
            p_batt_act = p_em_act + aux
            i_act = np.asarray(self.battery.clamp_current(
                self.battery.current_for_power(p_batt_act, soc)), dtype=float)
            p_batt_check = np.asarray(self.battery.terminal_power(i_act, soc),
                                      dtype=float)
            delivered_shaft = (t_ice_final + np.asarray(
                trans.motor_torque_at_shaft(t_em_final), dtype=float))
            shortfall = np.where(braking, 0.0,
                                 np.maximum(t_shaft_req - delivered_shaft,
                                            0.0))
            shortfall = np.where(motor_speed_ok, shortfall,
                                 np.abs(t_shaft_req))

        soc_next = self._soc_after(i_act, soc, dt)
        window = self._window_ok(soc_next)

        fuel = np.asarray(
            self.engine.fuel_rate(t_ice_final, omega_eng_final), dtype=float)
        fuel = np.where(engine_off, 0.0, fuel)

        brake = np.where(
            braking,
            np.minimum(wheel_torque - np.asarray(
                trans.wheel_torque(0.0, t_em_final, gears), dtype=float), 0.0),
            0.0)

        feasible = meets & window & current_ok & power_ok
        mode = classify(t_ice_final, t_em_final,
                        np.full(len(gears), wheel_speed), braking)

        return BatchResult(
            feasible=feasible, mode=mode, power_demand=p_dem,
            wheel_speed=wheel_speed, wheel_torque=wheel_torque,
            gear=gears.copy(), engine_speed=omega_eng_final,
            engine_torque=t_ice_final, motor_speed=omega_mot,
            motor_torque=t_em_final, battery_current=i_act,
            battery_power=p_batt_check, aux_power=aux.copy(), fuel_rate=fuel,
            brake_torque=brake, meets_demand=meets, window_ok=window,
            soc_next=soc_next, shortfall=shortfall)


class ScalarReferenceSolver(ReferencePowertrainSolver):
    """The seed physics driven one action at a time (no grid batching).

    Every candidate action is resolved through its own single-element batch
    and the results are stitched back together.  Because every seed
    operation is elementwise over the action axis (reductions like
    ``np.any`` only *gate* elementwise corrections), the stitched result is
    bit-identical to the batched one — the equivalence suite asserts it.
    This is the honest "before" of the struct-of-arrays refactor: the cost
    of the action grid without any vectorisation.
    """

    def evaluate_actions(self, speed, acceleration, soc, currents, gears,
                         aux_powers, dt, grade=0.0) -> BatchResult:
        """Resolve each action through its own single-element seed batch."""
        currents = np.asarray(currents, dtype=float)
        gears = np.asarray(gears, dtype=int)
        aux = np.asarray(aux_powers, dtype=float)
        if not (len(currents) == len(gears) == len(aux)):
            raise ConfigurationError(
                "action component arrays must be index-aligned")
        singles = [
            super(ScalarReferenceSolver, self).evaluate_actions(
                speed, acceleration, soc, currents[i:i + 1], gears[i:i + 1],
                aux[i:i + 1], dt, grade)
            for i in range(len(currents))
        ]
        if not singles:
            return super().evaluate_actions(speed, acceleration, soc,
                                            currents, gears, aux, dt, grade)
        first = singles[0]
        cat = {
            name: np.concatenate([getattr(s, name) for s in singles])
            for name in ("feasible", "mode", "gear", "engine_speed",
                         "engine_torque", "motor_speed", "motor_torque",
                         "battery_current", "battery_power", "aux_power",
                         "fuel_rate", "brake_torque", "meets_demand",
                         "window_ok", "soc_next", "shortfall")
        }
        return BatchResult(power_demand=first.power_demand,
                           wheel_speed=first.wheel_speed,
                           wheel_torque=first.wheel_torque, **cat)
