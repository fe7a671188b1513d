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
  controller grid and reused every step): the gear ratios gathered per
  unique gear and per action.  A speed-dependent quantity that costs
  several array calls is evaluated per *unique gear* and gathered with
  ``np.take``; one that costs a single ufunc is computed on the whole grid.

At a few hundred actions each numpy call costs more in overhead than in
arithmetic, so the kernel is written to make few of them.  It calls no
component model: the road load, the motor and engine torque limits, the
motor efficiency map and its power inversion, and the battery's power and
current relations each have one implementation here or in the tables,
used at every site, including the rare over-charge and starvation
corrections.  Two-branch ``where`` selections whose selected branch is
always the smaller (or larger) of the two are ``np.minimum`` (or
``np.maximum``), clamps are the ``clip`` ufunc, and the mode of a moving
step is an 8-entry table lookup built from
:func:`repro.powertrain.modes.classify_flags`.

The kernel is arithmetically **bit-identical** to the frozen seed
implementation preserved in ``tests/reference_solver.py`` — same
elementwise operations in the same association order — which the golden
equivalence suite (``tests/test_vectorized_equivalence.py``) enforces.
Results produced through a caller-held workspace reuse its buffers and are
only valid until the next evaluation on that workspace.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.powertrain.modes import OperatingMode, classify_flags
from repro.powertrain.operating_point import BatchResult, OperatingPoint
from repro.powertrain.tables import ActionGridWorkspace, PowertrainTables
from repro.vehicle.auxiliary import AuxiliarySystem
from repro.vehicle.battery import Battery
from repro.vehicle.dynamics import VehicleDynamics
from repro.vehicle.engine import Engine
from repro.vehicle.motor import Motor
from repro.vehicle.params import VehicleParams
from repro.vehicle.transmission import Transmission

try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip
"""The clip ufunc itself (min then max, elementwise): the ``np.clip``
wrapper costs more than the ``np.minimum(np.maximum(...))`` pair it would
replace."""

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


class _MotorStatics(NamedTuple):
    """Per-action motor terms of one moving step, for the power inversions."""

    speed: np.ndarray
    safe_speed: np.ndarray
    """Speed floored at 1e-6 for the division."""
    t_lim_fp: np.ndarray
    """Torque limit floored at 1e-9."""
    a_fp: np.ndarray
    """Speed term ``1 - 0.5 ds^2`` of the efficiency map."""
    stalled: Optional[np.ndarray]
    """Where the speed is not above 1e-6; None when no action stalls."""


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
        tables = self.tables
        speed = float(speed)
        tractive = tables.tractive_force(speed, float(acceleration), grade)
        wheel_speed = speed / tables.wheel_radius
        wheel_torque = float(tractive * tables.wheel_radius)
        p_dem = float(tractive * speed)

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
        # per-grid discriminant terms (aux is static per workspace); see
        # _current_for_power for the clamped discharge root.
        disc = voc2 - ws.four_rd_aux
        disc_i = (voc - np.sqrt(np.maximum(disc, 0.0))) / tables.two_rd
        chg_i = (voc - np.sqrt(voc2 - ws.four_rc_aux)) / tables.two_rc
        i_act = _clip(np.where(ws.aux_nonneg, disc_i, chg_i),
                      -tables.max_current, tables.max_current)
        p_batt = self._terminal_power(i_act, voc)
        soc_next, window = self._coulomb_count(i_act, soc, dt)

        zeros = ws.zeros
        return BatchResult(
            feasible=window.copy(), mode=ws.idle_mode, power_demand=p_dem,
            wheel_speed=0.0, wheel_torque=0.0, gear=ws.gears,
            engine_speed=zeros, engine_torque=zeros, motor_speed=zeros,
            motor_torque=zeros, battery_current=i_act, battery_power=p_batt,
            aux_power=ws.aux, fuel_rate=zeros, brake_torque=zeros,
            meets_demand=ws.ones_bool, window_ok=window, soc_next=soc_next,
            shortfall=zeros)

    # Battery and motor models over the kernel's statics.  Each is the one
    # implementation the kernel uses at every site; the same elementwise
    # operations in the same order as the component model it names.

    def _terminal_power(self, current: np.ndarray,
                        voc: np.float64) -> np.ndarray:
        """``Battery.terminal_power`` at the step's open-circuit voltage."""
        tables = self.tables
        r = np.where(current >= 0.0, tables.discharge_resistance,
                     tables.charge_resistance)
        return voc * current - r * np.square(current)

    def _current_for_power(self, power: np.ndarray, voc: np.float64,
                           voc2: np.float64) -> np.ndarray:
        """``Battery.current_for_power`` at the step's open-circuit voltage.

        One quadratic with the directional resistance: the model solves a
        discharge and a charge quadratic and selects by the sign of the
        power, and the branch it selects sees the power unclamped.  Past
        the pack's deliverable power (negative discriminant) the model
        selects ``voc / 2R``, the clamped root here, since ``sqrt(0.0)`` is
        0.  ``4R * 0.5`` is ``2R`` exactly.
        """
        tables = self.tables
        four_r = np.where(power >= 0.0, tables.four_rd, tables.four_rc)
        disc = voc2 - four_r * power
        root = voc - np.sqrt(np.maximum(disc, 0.0))
        return root / (four_r * 0.5)

    def _coulomb_count(self, current: np.ndarray, soc: float,
                       dt: float) -> tuple:
        """Post-step SoC per action (``Battery.step``) and the window check.

        The check is edge-inclusive up to ``_WINDOW_EDGE_TOL``.
        """
        tables = self.tables
        neg_idt = -current * dt
        # where(i >= 0, -i dt, -i dt eta_c): with 0 < eta_c <= 1 the
        # charging term is the smaller one exactly when -i dt > 0.
        delta = np.minimum(neg_idt, neg_idt * tables.coulombic_efficiency)
        charge = soc * tables.capacity + delta
        soc_next = _clip(charge / tables.capacity, 0.0, 1.0)
        window = ((soc_next >= tables.window_lo)
                  & (soc_next <= tables.window_hi))
        return soc_next, window

    def _motor_efficiency(self, torque: np.ndarray, t_lim_fp: np.ndarray,
                          a_fp: np.ndarray, out=None) -> np.ndarray:
        """``Motor._efficiency_given_limit`` with the speed terms precomputed.

        ``t_lim_fp`` is the floored torque limit and ``a_fp`` the speed
        term ``1 - 0.5 ds^2`` of each action's motor speed.
        """
        tables = self.tables
        eta = np.abs(torque, out=out)
        np.divide(eta, t_lim_fp, out=eta)
        np.minimum(eta, 1.5, out=eta)
        np.subtract(eta, tables.motor_opt_torque_fraction, out=eta)
        np.square(eta, out=eta)
        np.multiply(eta, 0.45, out=eta)
        np.subtract(a_fp, eta, out=eta)
        np.multiply(eta, tables.motor_peak_efficiency, out=eta)
        return _clip(eta, tables.motor_efficiency_floor,
                     tables.motor_peak_efficiency, out=eta)

    def _bus_power(self, ws: ActionGridWorkspace, t_em: np.ndarray,
                   motor: _MotorStatics) -> np.ndarray:
        """Battery bus power: ``Motor.electrical_power`` plus the aux draw."""
        mech = t_em * motor.speed
        eta = self._motor_efficiency(t_em, motor.t_lim_fp, motor.a_fp)
        # where(mech >= 0, mech / eta, mech * eta): with 0 < eta < 1 the
        # larger of the two is the selected branch (a tie is one number).
        p_em = np.divide(mech, eta)
        np.maximum(p_em, np.multiply(mech, eta, out=eta), out=p_em)
        return np.add(p_em, ws.aux, out=p_em)

    def _commanded_torque(self, ws: ActionGridWorkspace, power: np.ndarray,
                          motor: _MotorStatics) -> np.ndarray:
        """``Motor.torque_from_electrical_power`` over workspace buffers.

        The same fixed point: five torque evaluations, the efficiency
        re-derived from the torque between consecutive ones, and zero
        torque where the motor stalls (speed not above 1e-6).  Returns a
        workspace buffer.
        """
        safe_speed = motor.safe_speed
        torque = ws.buf("fp_torque")
        tmp = ws.buf("fp_tmp")
        eta_buf = ws.buf("fp_eta")
        eta = self.tables.motor_peak_efficiency
        for sweep in range(5):
            if sweep:
                eta = self._motor_efficiency(torque, motor.t_lim_fp,
                                             motor.a_fp, out=eta_buf)
            # where(power >= 0, power * eta / v, power / (eta * v)): with
            # 0 < eta < 1 the smaller of the two is the selected branch.
            np.multiply(power, eta, out=torque)
            np.divide(torque, safe_speed, out=torque)
            np.multiply(eta, safe_speed, out=tmp)
            np.divide(power, tmp, out=tmp)
            np.minimum(torque, tmp, out=torque)
        if motor.stalled is not None:
            np.copyto(torque, 0.0, where=motor.stalled)
        return torque

    def _shortfall(self, t_shaft: np.ndarray, t_ice: np.ndarray,
                   t_em: np.ndarray, motor_ok: np.ndarray) -> np.ndarray:
        """Undelivered shaft torque, for graceful fallback ranking."""
        tables = self.tables
        delivered = t_ice + _with_loss(tables.reduction_ratio * t_em,
                                       tables.reduction_efficiency,
                                       tables.inv_reduction_efficiency)
        shortfall = np.maximum(t_shaft - delivered, 0.0)
        return np.where(motor_ok, shortfall, np.abs(t_shaft))

    def _shed_overcharge(self, ws: ActionGridWorkspace, motor: _MotorStatics,
                         over_chg: np.ndarray, i_act: np.ndarray,
                         t_em_final: np.ndarray, neg_lim: np.ndarray,
                         voc: np.float64, voc2: np.float64) -> tuple:
        """Cut regeneration past the charge-current limit (rare).

        The over-charging actions take the EM torque the limit current can
        absorb and shed the excess regeneration to the friction brakes.
        Returns the new EM torque, bus power and current.
        """
        tables = self.tables
        i_lim = _clip(i_act, -tables.max_current, tables.max_current)
        p_em_lim = self._terminal_power(i_lim, voc) - ws.aux
        t_em_chg = self._commanded_torque(ws, p_em_lim, motor)
        t_em_final = np.where(over_chg, _clip(t_em_chg, neg_lim, 0.0),
                              t_em_final)
        p_batt_act = self._bus_power(ws, t_em_final, motor)
        return (t_em_final, p_batt_act,
                self._current_for_power(p_batt_act, voc, voc2))

    def _feed_starved(self, ws: ActionGridWorkspace, motor: _MotorStatics,
                      starved: np.ndarray, p_batt_check: np.ndarray,
                      t_em_final: np.ndarray, t_em_lim: np.ndarray,
                      voc: np.float64, voc2: np.float64) -> tuple:
        """Cut motoring torque to what a starved pack can feed (rare).

        The pack cannot feed the EM the electrical power its torque needs.
        The point is flagged infeasible already, but the fallback path may
        still execute it, so the executed torque must not exceed what the
        delivered bus power can feed; otherwise the reported operating
        point creates energy (motor output above its electrical input).
        Only motoring actions starve (a braking EM torque is never
        positive).  Returns the new EM torque, current and bus power.
        """
        tables = self.tables
        t_em_avail = _clip(self._commanded_torque(
            ws, p_batt_check - ws.aux, motor), 0.0, t_em_lim)
        t_em_final = np.where(starved, np.minimum(t_em_final, t_em_avail),
                              t_em_final)
        p_batt_act = self._bus_power(ws, t_em_final, motor)
        i_act = _clip(self._current_for_power(p_batt_act, voc, voc2),
                      -tables.max_current, tables.max_current)
        return t_em_final, i_act, self._terminal_power(i_act, voc)

    def _moving_grid(self, ws: ActionGridWorkspace, wheel_speed: float,
                     wheel_torque: float, p_dem: float, soc: float,
                     dt: float) -> BatchResult:
        """Resolve the engaged-powertrain case (v > 0) for an action grid."""
        if ws.gear_out_of_range:
            raise IndexError("gear index out of range")
        tables = self.tables
        inv = ws.gear_inv

        # --- speed-dependent terms: per unique gear (G entries), gathered
        # to the grid (N) where they cost more than one ufunc at N ---
        omega_eng_u = wheel_speed * ws.ratio_u
        omega_mot_u = omega_eng_u * tables.reduction_ratio
        speeds_u = omega_mot_u.tolist()
        t_em_lim_u = tables.motor_torque_limits(speeds_u)
        ds_u = (omega_mot_u / tables.motor_max_speed
                - tables.motor_opt_speed_fraction)
        omega_mot = omega_mot_u.take(inv)
        t_em_lim = t_em_lim_u.take(inv)
        a_fp = (1.0 - 0.5 * np.square(ds_u)).take(inv)
        neg_lim = -t_em_lim
        motor_ok = omega_mot <= tables.motor_speed_bound
        motor = _MotorStatics(
            omega_mot, np.maximum(omega_mot, 1e-6),
            np.maximum(t_em_lim, 1e-9), a_fp,
            None if min(speeds_u, default=np.inf) > 1e-6
            else ~(omega_mot > 1e-6))
        # The demanded shaft torque keeps the sign of the wheel torque for
        # every gear (ratios and efficiencies are positive), so the braking
        # decision is uniform across the batch and the directional branches
        # of the Eq. 8 inversions collapse to scalar Python branches.
        braking = wheel_torque < 0.0
        if braking:
            t_brk = wheel_torque * tables.gearbox_efficiency
            t_shaft = t_brk / ws.ratio
            t_em_dem_u = t_brk / ws.ratio_u / tables.rho_x_inv_red_eta
        else:
            t_shaft = wheel_torque / ws.ratio_x_gb_eta
            t_em_dem_u = (wheel_torque / ws.ratio_x_gb_eta_u
                          / tables.rho_x_red_eta)

        # --- commanded EM torque from the commanded current (the "intent") ---
        voc = self._open_circuit_voltage(soc)
        # Ufunc square, not scalar pow — see the note in _standstill_grid.
        voc2 = np.float64(np.asarray(voc) ** 2)
        p_em_cmd = voc * ws.i_cmd - ws.ri2_cmd - ws.aux
        t_em = _clip(self._commanded_torque(ws, p_em_cmd, motor), neg_lim,
                     t_em_lim)

        if braking:
            # --- engine declutched, regen bounded by demand and envelope ---
            brk_lo = np.maximum(-t_em_lim_u, t_em_dem_u).take(inv)
            t_em_final = _clip(t_em, brk_lo, 0.0)
            t_ice_final = ws.zeros
            meets = motor_ok
            omega_eng_final = ws.zeros
            shortfall = np.where(motor_ok, 0.0, np.abs(t_shaft))
        else:
            # --- motoring: engine makes up the remainder, cannot absorb surplus
            t_ice_raw = t_shaft - _with_loss(tables.reduction_ratio * t_em,
                                             tables.reduction_efficiency,
                                             tables.inv_reduction_efficiency)
            if tables.engine_parametric:
                t_ice_max_u = tables.engine_torque_limits(
                    omega_eng_u.tolist())
            else:
                t_ice_max_u = np.asarray(self.engine.max_torque(omega_eng_u),
                                         dtype=float)
            t_ice_max = t_ice_max_u.take(inv)
            can_run = ((omega_eng_u >= tables.engine_min_speed)
                       & (omega_eng_u <= tables.engine_max_speed)).take(inv)
            ev_only = (~can_run) | (t_ice_raw <= _TORQUE_TOL)
            # EV-only: the EM must carry the whole demand by itself.
            t_em_ev_u = _clip(t_em_dem_u, -t_em_lim_u, t_em_lim_u)
            t_em_ev = t_em_ev_u.take(inv)
            ev_meets = (np.abs(t_em_ev_u - t_em_dem_u)
                        <= _TORQUE_TOL).take(inv)
            # Engine-assisted: engine clipped at wide-open throttle.
            t_ice_mot = _clip(t_ice_raw, 0.0, t_ice_max)
            eng_meets = t_ice_raw <= t_ice_max + _TORQUE_TOL

            t_em_final = np.where(ev_only, t_em_ev, t_em)
            t_ice_final = np.where(ev_only, 0.0, t_ice_mot)
            meets = np.where(ev_only, ev_meets, eng_meets) & motor_ok
            # Engine speed collapses to zero when it produces no torque.
            engine_off = t_ice_final <= _TORQUE_TOL
            omega_eng = wheel_speed * ws.ratio
            omega_eng_final = np.where(engine_off, 0.0, omega_eng)
            shortfall = self._shortfall(t_shaft, t_ice_final, t_em_final,
                                        motor_ok)

        # --- actual electrical balance after saturation ---
        p_batt_act = self._bus_power(ws, t_em_final, motor)
        i_act = self._current_for_power(p_batt_act, voc, voc2)
        over_chg = i_act < -tables.max_current
        if np.count_nonzero(over_chg):
            t_em_final, p_batt_act, i_act = self._shed_overcharge(
                ws, motor, over_chg, i_act, t_em_final, neg_lim, voc, voc2)
        current_ok = np.abs(i_act) <= tables.current_tol
        # Whatever gets executed must be a physical current: clamp to the
        # pack limit (the pre-clamp check above already marked the point
        # infeasible, but the fallback path may still execute it).
        i_act = _clip(i_act, -tables.max_current, tables.max_current)
        # Discharge saturation (demand beyond pack power) shows up as the
        # quadratic clamping inside current_for_power; flag it infeasible when
        # the delivered bus power misses the requirement.
        p_batt_check = self._terminal_power(i_act, voc)
        power_ok = np.abs(p_batt_check - p_batt_act) <= np.maximum(
            50.0, 0.02 * np.abs(p_batt_act))
        starved = (~power_ok) & (t_em_final > 0.0)
        if np.count_nonzero(starved):
            t_em_final, i_act, p_batt_check = self._feed_starved(
                ws, motor, starved, p_batt_check, t_em_final, t_em_lim, voc,
                voc2)
            shortfall = self._shortfall(t_shaft, t_ice_final, t_em_final,
                                        motor_ok)

        # --- Coulomb counting and SoC window ---
        soc_next, window = self._coulomb_count(i_act, soc, dt)

        if braking:
            fuel = ws.zeros
            # transmission.wheel_torque(0.0, t_em_final, gears); the sign of
            # a zero shaft torque cannot reach the (negative) brake torque.
            shaft = _with_loss(tables.reduction_ratio * t_em_final,
                               tables.reduction_efficiency,
                               tables.inv_reduction_efficiency)
            brake = np.minimum(
                wheel_torque - _with_loss(ws.ratio * shaft,
                                          tables.gearbox_efficiency,
                                          tables.inv_gearbox_efficiency),
                0.0)
            # With the engine declutched the full classify() collapses to
            # "regenerating or idle" (engine torque is identically zero).
            mode = np.where(t_em_final < -_TORQUE_TOL,
                            int(OperatingMode.REGEN),
                            int(OperatingMode.IDLE))
        else:
            if tables.engine_parametric:
                # engine.fuel_rate inlined over the per-gear statics.  A
                # declutched action has engine speed 0, so it is not
                # running and its fuel is 0 whatever the terms below hold.
                ds_eng_u = ((omega_eng_u - tables.eng_opt_speed)
                            / tables.eng_speed_span)
                a_eng = (1.0 - tables.eng_speed_falloff
                         * np.square(ds_eng_u)).take(inv)
                torque_frac = _clip(t_ice_final / np.maximum(t_ice_max, 1e-9),
                                    0.0, 1.5)
                dt_eng = torque_frac - tables.eng_opt_torque_fraction
                eta_eng = _clip(
                    tables.eng_peak_efficiency
                    * (a_eng - tables.eng_torque_falloff * np.square(dt_eng)),
                    tables.eng_efficiency_floor, tables.eng_peak_efficiency)
                # t_ice_final is clipped at 0, so max(t_ice_final, 0) is
                # t_ice_final itself.
                load_fuel = (t_ice_final * omega_eng_final
                             / (eta_eng * tables.eng_fuel_energy_density))
                idle_fuel = tables.eng_idle_fuel_rate * (
                    omega_eng / tables.eng_fuel_max_speed + 0.5)
                fuel = np.where(omega_eng_final > 1e-9, load_fuel + idle_fuel,
                                0.0)
            else:
                fuel = np.where(engine_off, 0.0, np.asarray(
                    self.engine.fuel_rate(t_ice_final, omega_eng_final),
                    dtype=float))
            brake = ws.zeros
            mode = _moving_mode(t_ice_final, t_em_final)

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


def _with_loss(torque: np.ndarray, eta: float,
               inv_eta: float) -> np.ndarray:
    """``torque * where(torque >= 0, eta, inv_eta)`` for ``0 < eta <= 1``.

    A gear stage loses ``eta`` in the direction the torque drives it.  The
    smaller of the two products is the selected branch: ``eta <= 1 <=
    inv_eta`` and rounding is monotone, and a tie is one number.
    """
    return np.minimum(torque * eta, torque * inv_eta)


def _moving_mode(engine_torque: np.ndarray,
                 motor_torque: np.ndarray) -> np.ndarray:
    """``classify`` of a moving, non-braking step, as a table lookup.

    Indexes :data:`_MOVING_MODES` by ``engine_on * 4 + motoring * 2 +
    generating``; equal to ``classify(engine_torque, motor_torque,
    wheel_speed, False)`` for any ``wheel_speed > 1e-9``.
    """
    code = (engine_torque > _TORQUE_TOL).view(np.uint8) << 2
    code |= (motor_torque > _TORQUE_TOL).view(np.uint8) << 1
    code |= (motor_torque < -_TORQUE_TOL).view(np.uint8)
    return _MOVING_MODES.take(code)


_MODE_BITS = np.arange(8)
_MOVING_MODES = classify_flags((_MODE_BITS & 4) > 0, (_MODE_BITS & 2) > 0,
                               (_MODE_BITS & 1) > 0, False, False)
"""Operating mode of a moving, non-braking step for each flag pattern
``engine_on * 4 + motoring * 2 + generating``, from the rules in
:func:`repro.powertrain.modes.classify_flags` (patterns 3 and 7 cannot
occur: a torque cannot be both above and below the tolerance band)."""
