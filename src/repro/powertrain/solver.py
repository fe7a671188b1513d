"""Backward-looking parallel-HEV powertrain solver.

This module resolves the paper's Section 2.2 control flow: the driver fixes
speed ``v`` and acceleration ``a``; the controller picks the battery current
``i``, the gear ``R(k)``, and the auxiliary power ``p_aux``; everything else
(engine and motor torques/speeds, actual battery power, fuel rate, friction
braking) is a dependent variable that this solver computes.

Saturation semantics
--------------------
Discrete current actions rarely hit the exact power balance, so the solver
treats the commanded current as an *intent* and saturates it against the
physics, the way a real supervisory controller's lower layers would:

* If the EM (fed by the commanded current) would over-deliver torque while
  motoring, the engine cannot absorb the excess, so the EM torque is cut back
  to exactly meet demand and the actual current is recomputed.
* While braking, the engine is declutched and fuel is cut; the EM may not
  regenerate harder than the demanded braking torque, the envelope, or the
  battery's charge-current limit, and friction brakes absorb the remainder.
* At standstill the powertrain is disengaged and only the auxiliaries load
  the battery.

An action is *infeasible* when it cannot deliver the demanded traction (the
engine would exceed its wide-open-throttle curve, or EV-only operation would
exceed the EM envelope) or when it would push the battery charge outside the
charge-sustaining window.  The solver always reports the achievable torque
shortfall so the simulator can fall back gracefully on pathological steps.

Struct-of-arrays fast path
--------------------------
The batch kernel is organised around two precomputation layers (see
:mod:`repro.powertrain.tables` and ``docs/PERFORMANCE.md``):

* per-vehicle constants (:class:`PowertrainTables`, built once per solver
  configuration and rebuilt automatically when fault injection re-runs
  ``__init__`` in place), and
* per-action-grid statics (:class:`ActionGridWorkspace`, built once per
  controller grid and reused every step), with per-*unique-gear* evaluation
  of the gear-dependent quantities followed by ``np.take`` gathers.

The kernel is arithmetically **bit-identical** to the frozen seed
implementation preserved in ``tests/reference_solver.py`` — same
elementwise operations in the same association order — which the golden
equivalence suite (``tests/test_vectorized_equivalence.py``) enforces.
Results produced through a caller-held workspace reuse its buffers and are
only valid until the next evaluation on that workspace.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.powertrain.modes import OperatingMode, classify
from repro.powertrain.operating_point import BatchResult, OperatingPoint
from repro.powertrain.tables import ActionGridWorkspace, PowertrainTables
from repro.vehicle.auxiliary import AuxiliarySystem
from repro.vehicle.battery import Battery
from repro.vehicle.dynamics import VehicleDynamics
from repro.vehicle.engine import Engine
from repro.vehicle.motor import Motor
from repro.vehicle.params import VehicleParams
from repro.vehicle.transmission import Transmission

_TORQUE_TOL = 1e-6
_SPEED_TOL = 1e-6
_WINDOW_SLACK = 0.01
"""SoC slack (fraction of capacity) tolerated beyond the operating window
before an action is declared infeasible; keeps boundary states solvable."""
_WINDOW_EDGE_TOL = 1e-9
"""Absolute tolerance on the slackened window edges: a post-step SoC that
lands *exactly* on an edge must count as inside, but the Coulomb-counting
round trip (charge -> fraction) can round the landing a few ULPs past it.
The window comparison is therefore edge-inclusive up to this tolerance."""

_CONFIG_EPOCHS = itertools.count()
"""Monotonic configuration-epoch source.  Each ``PowertrainSolver.__init__``
takes a fresh epoch, including the in-place re-initialisations the fault
harness performs, so caller-held workspaces can detect plant changes."""


class PowertrainSolver:
    """Resolves dependent powertrain variables for batches of actions."""

    def __init__(self, params: VehicleParams, engine=None):
        """``engine`` substitutes a drop-in engine model (e.g. a
        :class:`repro.vehicle.maps.TabulatedEngine` built from a measured
        fuel map) for the parametric default."""
        self._params = params
        self.dynamics = VehicleDynamics(params.body)
        self.engine = engine if engine is not None else Engine(params.engine)
        self.motor = Motor(params.motor)
        self.battery = Battery(params.battery)
        self.transmission = Transmission(params.transmission)
        self.auxiliary = AuxiliarySystem(params.auxiliary)
        # The speed band comes from the active engine model, which may be a
        # tabulated substitute with a different grid than the params.
        self._engine_min_speed = getattr(self.engine, "min_speed",
                                         params.engine.min_speed)
        self._engine_max_speed = getattr(self.engine, "max_speed",
                                         params.engine.max_speed)
        if hasattr(self.engine, "params"):
            self._engine_min_speed = self.engine.params.min_speed
            self._engine_max_speed = self.engine.params.max_speed
        self._epoch = next(_CONFIG_EPOCHS)
        self.tables = PowertrainTables(self)

    @property
    def params(self) -> VehicleParams:
        """The vehicle parameter set this solver was built from."""
        return self._params

    # ------------------------------------------------------------------ API ---

    def workspace(self, currents: Sequence[float], gears: Sequence[int],
                  aux_powers: Sequence[float]) -> ActionGridWorkspace:
        """Bind a fixed candidate action grid to this solver for reuse.

        The returned workspace precomputes every state-independent quantity
        of the grid and preallocates the per-step buffers; feed it to
        :meth:`evaluate_grid` each step.  It survives in-place plant
        rebuilds (fault injection) by re-deriving its statics on demand.
        """
        return ActionGridWorkspace(self, currents, gears, aux_powers)

    def evaluate_actions(self, speed: float, acceleration: float, soc: float,
                         currents: Sequence[float], gears: Sequence[int],
                         aux_powers: Sequence[float], dt: float,
                         grade: float = 0.0) -> BatchResult:
        """Resolve a batch of candidate actions for one driver demand.

        ``currents``, ``gears`` and ``aux_powers`` must be index-aligned
        arrays of equal length N; the result is a :class:`BatchResult` of
        length N.  ``soc`` is the pack state of charge as a fraction.

        This compatibility path builds a throwaway workspace per call and
        therefore owns its output arrays, like the seed implementation;
        steady-state callers should hold a :meth:`workspace` and use
        :meth:`evaluate_grid` instead.
        """
        workspace = ActionGridWorkspace(
            self, np.array(currents, dtype=float),
            np.array(gears, dtype=int), np.array(aux_powers, dtype=float))
        return self.evaluate_grid(workspace, speed, acceleration, soc, dt,
                                  grade)

    def evaluate_grid(self, workspace: ActionGridWorkspace, speed: float,
                      acceleration: float, soc: float, dt: float,
                      grade: float = 0.0) -> BatchResult:
        """Resolve the workspace's action grid for one driver demand.

        The hot path: all grid statics and buffers come from ``workspace``,
        so the returned :class:`BatchResult` aliases workspace storage and
        is only valid until the next ``evaluate_grid`` call on the same
        workspace (copy what must survive).
        """
        if workspace.solver is not self:
            raise ConfigurationError(
                "workspace is bound to a different solver")
        if dt <= 0:
            raise ConfigurationError("time step must be positive")
        workspace.ensure_current()

        # One road-load evaluation serves wheel torque and power demand
        # (the seed computed it twice with identical inputs).
        speed_arr = np.asarray(speed, dtype=float)
        tractive = self.dynamics.road_load(speed, acceleration, grade).total
        wheel_speed = float(speed_arr / self.tables.wheel_radius)
        wheel_torque = float(tractive * self.tables.wheel_radius)
        p_dem = float(tractive * speed_arr)

        if wheel_speed <= _SPEED_TOL:
            return self._standstill_grid(workspace, p_dem, float(soc), dt)
        return self._moving_grid(workspace, wheel_speed, wheel_torque, p_dem,
                                 float(soc), dt)

    def evaluate(self, speed: float, acceleration: float, soc: float,
                 current: float, gear: int, aux_power: float, dt: float,
                 grade: float = 0.0) -> OperatingPoint:
        """Scalar convenience wrapper around :meth:`evaluate_actions`."""
        batch = self.evaluate_actions(speed, acceleration, soc, [current],
                                      [gear], [aux_power], dt, grade)
        return batch.point(0)

    # ------------------------------------------------------------ internals ---

    def _soc_after(self, currents: np.ndarray, soc: float, dt: float) -> np.ndarray:
        """Post-step SoC (fraction) for each actual current, by Coulomb counting."""
        p = self._params.battery
        delta = np.where(currents >= 0.0, -currents * dt,
                         -currents * dt * p.coulombic_efficiency)
        charge = soc * p.capacity + delta
        return np.clip(charge / p.capacity, 0.0, 1.0)

    def _window_ok(self, soc_next: np.ndarray) -> np.ndarray:
        """True where the post-step SoC stays inside the (slackened) window.

        Edge-inclusive: landing exactly on ``soc_min - slack`` (or the upper
        mirror) is feasible even when floating-point round-off places the
        computed fraction a few ULPs outside.
        """
        p = self._params.battery
        return ((soc_next >= p.soc_min - _WINDOW_SLACK - _WINDOW_EDGE_TOL)
                & (soc_next <= p.soc_max + _WINDOW_SLACK + _WINDOW_EDGE_TOL))

    def _open_circuit_voltage(self, soc: float) -> np.float64:
        """Scalar OCV, arithmetically identical to :meth:`Battery.open_circuit_voltage`."""
        tables = self.tables
        soc_c = min(max(soc, 0.0), 1.0)
        return np.float64(tables.voltage_at_empty + tables.voc_span * soc_c)

    def _standstill_grid(self, ws: ActionGridWorkspace, p_dem: float,
                         soc: float, dt: float) -> BatchResult:
        """Resolve the disengaged-powertrain case (v = 0).

        The commanded current is irrelevant: the only battery load is the
        auxiliary draw, so the actual current is whatever sustains ``p_aux``.
        """
        tables = self.tables
        voc = self._open_circuit_voltage(soc)
        # Square through the power ufunc: np.float64 ** 2 (libm pow) can be
        # 1 ULP off the seed's 0-d-array power, which current_for_power's
        # discriminant then amplifies into a visible current difference.
        voc2 = np.float64(np.asarray(voc) ** 2)

        # battery.current_for_power(aux, soc) against the precomputed
        # per-grid discriminant terms (aux is static per workspace).
        disc = voc2 - ws.four_rd_aux
        disc_i = (voc - np.sqrt(np.maximum(disc, 0.0))) / tables.two_rd
        disc_i = np.where(disc >= 0.0, disc_i, voc / tables.two_rd)
        chg = voc2 - ws.four_rc_aux
        chg_i = (voc - np.sqrt(chg)) / tables.two_rc
        i_act = np.where(ws.aux_nonneg, disc_i, chg_i)
        i_act = np.minimum(np.maximum(i_act, -tables.max_current),
                           tables.max_current)

        r_act = np.where(i_act >= 0.0, tables.discharge_resistance,
                         tables.charge_resistance)
        p_batt = voc * i_act - r_act * i_act ** 2

        neg_idt = -i_act * dt
        delta = np.where(i_act >= 0.0, neg_idt,
                         neg_idt * tables.coulombic_efficiency)
        charge = soc * tables.capacity + delta
        soc_next = np.minimum(np.maximum(charge / tables.capacity, 0.0),
                              1.0)
        window = ((soc_next >= tables.window_lo)
                  & (soc_next <= tables.window_hi))
        feasible = window & ws.ones_bool

        zeros = ws.zeros
        return BatchResult(
            feasible=feasible, mode=ws.idle_mode, power_demand=p_dem,
            wheel_speed=0.0, wheel_torque=0.0, gear=ws.gears,
            engine_speed=zeros, engine_torque=zeros, motor_speed=zeros,
            motor_torque=zeros, battery_current=i_act, battery_power=p_batt,
            aux_power=ws.aux, fuel_rate=zeros, brake_torque=zeros,
            meets_demand=ws.ones_bool, window_ok=window, soc_next=soc_next,
            shortfall=zeros)

    def _commanded_torque(self, ws: ActionGridWorkspace, power: np.ndarray,
                          safe_speed: np.ndarray, t_lim_fp: np.ndarray,
                          a_fp: np.ndarray) -> np.ndarray:
        """Motor fixed-point power inversion over workspace scratch buffers.

        Same fixed point as :meth:`Motor.torque_from_electrical_power`
        (five torque evaluations, the efficiency re-derived from the torque
        between consecutive ones), with the speed-dependent
        subexpressions (``safe_speed``, torque limit, ``1 - 0.5 ds^2``)
        precomputed per unique gear and gathered.  The caller applies the
        zero-speed cutoff.  Returns a workspace buffer.
        """
        tables = self.tables
        eta = ws.buf("fp_eta")
        torque = ws.buf("fp_torque")
        tmp = ws.buf("fp_tmp")
        generating = np.less(power, 0.0, out=ws.bool_buf("fp_generating"))
        eta.fill(tables.motor_peak_efficiency)
        for sweep in range(5):
            if sweep:
                # eta = clip(peak * ((1 - 0.5 ds^2) - 0.45 dt^2), floor, peak)
                np.abs(torque, out=tmp)
                np.divide(tmp, t_lim_fp, out=tmp)
                np.minimum(tmp, 1.5, out=tmp)
                np.subtract(tmp, tables.motor_opt_torque_fraction, out=tmp)
                np.power(tmp, 2.0, out=tmp)
                np.multiply(tmp, 0.45, out=tmp)
                np.subtract(a_fp, tmp, out=tmp)
                np.multiply(tmp, tables.motor_peak_efficiency, out=tmp)
                np.maximum(tmp, tables.motor_efficiency_floor, out=tmp)
                np.minimum(tmp, tables.motor_peak_efficiency, out=eta)
            # torque = where(motoring, power * eta / safe_speed,
            #                power / (eta * safe_speed))
            np.multiply(power, eta, out=torque)
            np.divide(torque, safe_speed, out=torque)
            np.multiply(eta, safe_speed, out=tmp)
            np.divide(power, tmp, out=tmp)
            np.copyto(torque, tmp, where=generating)
        return torque

    def _moving_grid(self, ws: ActionGridWorkspace, wheel_speed: float,
                     wheel_torque: float, p_dem: float, soc: float,
                     dt: float) -> BatchResult:
        """Resolve the engaged-powertrain case (v > 0) for an action grid."""
        if ws.gear_out_of_range:
            raise IndexError("gear index out of range")
        tables = self.tables
        inv = ws.gear_inv

        # --- per-unique-gear quantities (G entries, then gathered to N) ---
        gear_u = ws.gear_unique
        ratio_u = tables.ratios[gear_u]
        omega_eng_u = wheel_speed * ratio_u
        omega_mot_u = omega_eng_u * tables.reduction_ratio
        motor_ok_u = omega_mot_u <= tables.motor_speed_bound
        can_run_u = ((omega_eng_u >= tables.engine_min_speed)
                     & (omega_eng_u <= tables.engine_max_speed))
        t_em_lim_u = np.asarray(self.motor.max_torque(omega_mot_u),
                                dtype=float)
        neg_lim_u = -t_em_lim_u
        # The demanded shaft torque keeps the sign of the wheel torque for
        # every gear (ratios and efficiencies are positive), so the braking
        # decision is uniform across the batch and the directional branches
        # of the Eq. 8 inversions collapse to scalar Python branches.
        braking = wheel_torque < 0.0
        if braking:
            t_shaft_u = wheel_torque * tables.gearbox_efficiency / ratio_u
            t_em_dem_u = t_shaft_u / tables.rho_x_inv_red_eta
        else:
            t_shaft_u = wheel_torque / tables.ratio_x_gb_eta[gear_u]
            t_em_dem_u = t_shaft_u / tables.rho_x_red_eta
        # Fixed-point inversion statics.
        safe_speed_u = np.maximum(omega_mot_u, 1e-6)
        t_lim_fp_u = np.maximum(t_em_lim_u, 1e-9)
        ds_u = (omega_mot_u / tables.motor_max_speed
                - tables.motor_opt_speed_fraction)
        a_u = 1.0 - 0.5 * ds_u ** 2
        spd_all_pos = bool((omega_mot_u > 1e-6).all())

        omega_mot = omega_mot_u.take(inv)
        motor_ok = motor_ok_u.take(inv)
        t_shaft = t_shaft_u.take(inv)
        t_em_lim = t_em_lim_u.take(inv)
        neg_lim = neg_lim_u.take(inv)
        safe_speed = safe_speed_u.take(inv)
        t_lim_fp = t_lim_fp_u.take(inv)
        a_fp = a_u.take(inv)

        # --- commanded EM torque from the commanded current (the "intent") ---
        voc = self._open_circuit_voltage(soc)
        # Ufunc square, not scalar pow — see the note in _standstill_grid.
        voc2 = np.float64(np.asarray(voc) ** 2)
        p_batt_cmd = voc * ws.i_cmd - ws.ri2_cmd
        p_em_cmd = p_batt_cmd - ws.aux
        t_em_cmd = self._commanded_torque(ws, p_em_cmd, safe_speed, t_lim_fp,
                                          a_fp)
        if not spd_all_pos:
            np.copyto(t_em_cmd, 0.0, where=(~(omega_mot_u > 1e-6)).take(inv))
        t_em = np.minimum(np.maximum(t_em_cmd, neg_lim), t_em_lim)

        if braking:
            # --- engine declutched, regen bounded by demand and envelope ---
            brk_lo = np.maximum(neg_lim_u, t_em_dem_u).take(inv)
            t_em_final = np.minimum(np.maximum(t_em, brk_lo), 0.0)
            t_ice_final = ws.zeros
            meets = motor_ok
            engine_off = ws.ones_bool
            omega_eng_final = ws.zeros
            shortfall = np.where(motor_ok, 0.0, np.abs(t_shaft))
        else:
            # --- motoring: engine makes up the remainder, cannot absorb surplus
            eta_elem = np.where(t_em >= 0.0, tables.reduction_efficiency,
                                tables.inv_reduction_efficiency)
            shaft_from_em = tables.reduction_ratio * t_em * eta_elem
            t_ice_raw = t_shaft - shaft_from_em
            t_ice_max_u = np.asarray(self.engine.max_torque(omega_eng_u),
                                     dtype=float)
            t_ice_max = t_ice_max_u.take(inv)
            can_run = can_run_u.take(inv)
            ev_only = (~can_run) | (t_ice_raw <= _TORQUE_TOL)
            # EV-only: the EM must carry the whole demand by itself.
            t_em_ev_u = np.minimum(np.maximum(t_em_dem_u, neg_lim_u),
                                   t_em_lim_u)
            t_em_ev = t_em_ev_u.take(inv)
            ev_meets = (np.abs(t_em_ev_u - t_em_dem_u)
                        <= _TORQUE_TOL).take(inv)
            # Engine-assisted: engine clipped at wide-open throttle.
            t_ice_mot = np.minimum(np.maximum(t_ice_raw, 0.0), t_ice_max)
            eng_meets = t_ice_raw <= t_ice_max + _TORQUE_TOL

            t_em_final = np.where(ev_only, t_em_ev, t_em)
            t_ice_final = np.where(ev_only, 0.0, t_ice_mot)
            meets = np.where(ev_only, ev_meets, eng_meets) & motor_ok
            # Engine speed collapses to zero when it produces no torque.
            engine_off = t_ice_final <= _TORQUE_TOL
            omega_eng_final = np.where(engine_off, 0.0,
                                       omega_eng_u.take(inv))

            # Undelivered shaft torque for graceful fallback ranking.
            eta_fin = np.where(t_em_final >= 0.0, tables.reduction_efficiency,
                               tables.inv_reduction_efficiency)
            delivered = t_ice_final + tables.reduction_ratio * t_em_final * eta_fin
            shortfall = np.maximum(t_shaft - delivered, 0.0)
            shortfall = np.where(motor_ok, shortfall, np.abs(t_shaft))

        # --- actual electrical balance after saturation ---
        # motor.electrical_power with the per-gear efficiency statics.
        mech = t_em_final * omega_mot
        tf_act = np.minimum(np.abs(t_em_final) / t_lim_fp, 1.5)
        dt_act = tf_act - tables.motor_opt_torque_fraction
        eta_act = np.minimum(
            np.maximum(tables.motor_peak_efficiency * (a_fp - 0.45 * dt_act ** 2),
                       tables.motor_efficiency_floor),
            tables.motor_peak_efficiency)
        p_em_act = np.where(mech >= 0.0, mech / eta_act, mech * eta_act)
        p_batt_act = p_em_act + ws.aux
        # battery.current_for_power(p_batt_act, soc), inline.
        disc = voc2 - tables.four_rd * np.maximum(p_batt_act, 0.0)
        disc_i = (voc - np.sqrt(np.maximum(disc, 0.0))) / tables.two_rd
        i_act = np.where(disc >= 0.0, disc_i, voc / tables.two_rd)
        chg = voc2 - tables.four_rc * np.minimum(p_batt_act, 0.0)
        chg_i = (voc - np.sqrt(chg)) / tables.two_rc
        i_act = np.where(p_batt_act >= 0.0, i_act, chg_i)

        # Regen may exceed the charge-current limit: clamp and shed the excess
        # regeneration to the friction brakes.  (Rare; uses the component
        # models directly, exactly like the reference path.)
        over_chg = i_act < -tables.max_current
        if over_chg.any():
            i_clamped = self.battery.clamp_current(i_act)
            p_batt_lim = np.asarray(
                self.battery.terminal_power(i_clamped, soc), dtype=float)
            p_em_lim = p_batt_lim - ws.aux
            t_em_lim_chg = np.asarray(
                self.motor.torque_from_electrical_power(p_em_lim, omega_mot),
                dtype=float)
            t_em_final = np.where(over_chg, np.clip(t_em_lim_chg, -t_em_lim, 0.0),
                                  t_em_final)
            p_em_act = np.asarray(
                self.motor.electrical_power(t_em_final, omega_mot), dtype=float)
            p_batt_act = p_em_act + ws.aux
            i_act = np.asarray(self.battery.current_for_power(p_batt_act, soc),
                               dtype=float)
        current_ok = np.abs(i_act) <= tables.current_tol
        # Whatever gets executed must be a physical current: clamp to the
        # pack limit (the pre-clamp check above already marked the point
        # infeasible, but the fallback path may still execute it).
        i_act = np.minimum(np.maximum(i_act, -tables.max_current),
                           tables.max_current)
        # Discharge saturation (demand beyond pack power) shows up as the
        # quadratic clamping inside current_for_power; flag it infeasible when
        # the delivered bus power misses the requirement.
        r_act = np.where(i_act >= 0.0, tables.discharge_resistance,
                         tables.charge_resistance)
        p_batt_check = voc * i_act - r_act * i_act ** 2
        power_ok = np.abs(p_batt_check - p_batt_act) <= np.maximum(
            50.0, 0.02 * np.abs(p_batt_act))
        # Discharge starvation: the pack cannot feed the EM the electrical
        # power its torque requires.  The point is flagged infeasible above,
        # but the fallback path may still execute it, so cut the executed EM
        # torque back to what the delivered bus power can actually feed —
        # otherwise the reported operating point creates energy (motor
        # mechanical output above its electrical input).  (Rare; component
        # models, like the reference path.)
        starved = (~power_ok) & (t_em_final > 0.0)
        if starved.any():
            p_em_avail = p_batt_check - ws.aux
            t_em_avail = np.clip(np.asarray(
                self.motor.torque_from_electrical_power(p_em_avail, omega_mot),
                dtype=float), 0.0, t_em_lim)
            t_em_final = np.where(starved, np.minimum(t_em_final, t_em_avail),
                                  t_em_final)
            p_em_act = np.asarray(
                self.motor.electrical_power(t_em_final, omega_mot), dtype=float)
            p_batt_act = p_em_act + ws.aux
            i_act = np.asarray(self.battery.clamp_current(
                self.battery.current_for_power(p_batt_act, soc)), dtype=float)
            p_batt_check = np.asarray(self.battery.terminal_power(i_act, soc),
                                      dtype=float)
            delivered = (t_ice_final + np.asarray(
                self.transmission.motor_torque_at_shaft(t_em_final),
                dtype=float))
            shortfall = np.where(braking, 0.0,
                                 np.maximum(t_shaft - delivered, 0.0))
            shortfall = np.where(motor_ok, shortfall, np.abs(t_shaft))

        # --- Coulomb counting and SoC window ---
        neg_idt = -i_act * dt
        delta = np.where(i_act >= 0.0, neg_idt,
                         neg_idt * tables.coulombic_efficiency)
        charge = soc * tables.capacity + delta
        soc_next = np.minimum(np.maximum(charge / tables.capacity, 0.0),
                              1.0)
        window = ((soc_next >= tables.window_lo)
                  & (soc_next <= tables.window_hi))

        if braking:
            fuel = ws.zeros
            brake = np.minimum(
                wheel_torque - np.asarray(
                    self.transmission.wheel_torque(0.0, t_em_final, ws.gears),
                    dtype=float), 0.0)
            # With the engine declutched the full classify() collapses to
            # "regenerating or idle" (engine torque is identically zero).
            mode = np.where(t_em_final < -_TORQUE_TOL,
                            int(OperatingMode.REGEN),
                            int(OperatingMode.IDLE))
        else:
            if tables.engine_parametric:
                # engine.fuel_rate inlined over the per-gear statics; the
                # declutched elements run through the same arithmetic as the
                # seed (speed 0) and are zeroed just below.
                t_max_fuel = np.where(engine_off, 1e-9,
                                      np.maximum(t_ice_max_u, 1e-9).take(inv))
                torque_frac = np.minimum(
                    np.maximum(t_ice_final / t_max_fuel, 0.0), 1.5)
                ds_eng_u = ((omega_eng_u - tables.eng_opt_speed)
                            / tables.eng_speed_span)
                a_eng = np.where(
                    engine_off, tables.eng_a_at_zero,
                    (1.0 - tables.eng_speed_falloff * ds_eng_u ** 2).take(inv))
                dt_eng = torque_frac - tables.eng_opt_torque_fraction
                eta_eng = np.minimum(np.maximum(
                    tables.eng_peak_efficiency
                    * (a_eng - tables.eng_torque_falloff * dt_eng ** 2),
                    tables.eng_efficiency_floor), tables.eng_peak_efficiency)
                power_eng = np.maximum(t_ice_final, 0.0) * omega_eng_final
                load_fuel = power_eng / (eta_eng
                                         * tables.eng_fuel_energy_density)
                speed_frac = np.where(
                    engine_off, 0.0,
                    (omega_eng_u / tables.eng_fuel_max_speed).take(inv))
                idle_fuel = tables.eng_idle_fuel_rate * (speed_frac + 0.5)
                running = omega_eng_final > 1e-9
                fuel = np.where(running, load_fuel + idle_fuel, 0.0)
            else:
                fuel = np.asarray(
                    self.engine.fuel_rate(t_ice_final, omega_eng_final),
                    dtype=float)
            fuel = np.where(engine_off, 0.0, fuel)
            brake = ws.zeros
            mode = classify(t_ice_final, t_em_final, wheel_speed, braking)

        feasible = meets & window & current_ok & power_ok

        return BatchResult(
            feasible=feasible, mode=mode, power_demand=p_dem,
            wheel_speed=wheel_speed, wheel_torque=wheel_torque,
            gear=ws.gears, engine_speed=omega_eng_final,
            engine_torque=t_ice_final, motor_speed=omega_mot,
            motor_torque=t_em_final, battery_current=i_act,
            battery_power=p_batt_check, aux_power=ws.aux, fuel_rate=fuel,
            brake_torque=brake, meets_demand=meets, window_ok=window,
            soc_next=soc_next, shortfall=shortfall)
