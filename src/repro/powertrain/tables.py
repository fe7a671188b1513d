"""Precomputed per-vehicle tables and reusable action-grid workspaces.

The struct-of-arrays hot path is built on two precomputation layers.
:class:`PowertrainTables` holds every
per-:class:`~repro.vehicle.params.VehicleParams` constant the solver
kernel needs, extracted **exactly** (no fitting, no interpolation) at
:class:`~repro.powertrain.solver.PowertrainSolver` construction: per-gear
wheel-speed/torque transform coefficients, battery OCV line and
resistance/limit constants, motor-envelope and engine speed-band bounds,
and the scalar road-load coefficients.  Because these are the same
numbers the component models use, arithmetic against them is
bit-identical to calling the models — that is the contract the golden
equivalence suite pins.

:class:`ActionGridWorkspace` binds a *fixed* candidate action grid
(currents × gears × aux powers) to a solver: everything that does not
depend on the driver state — clamped commanded currents, their resistive
power terms, per-unique-gear index maps, standstill discriminant terms —
is computed once, and every per-step output/scratch array is preallocated
and reused.  :meth:`repro.powertrain.solver.PowertrainSolver.evaluate_grid`
evaluates a step into the workspace without allocating; the returned
:class:`~repro.powertrain.operating_point.BatchResult` views the workspace
buffers and is only valid until the next ``evaluate_grid`` call on the
same workspace.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.units import AIR_DENSITY, GRAVITY


class PowertrainTables:
    """Exact precomputed constants for one solver configuration.

    Rebuilt whenever the solver is (re)initialised — including in-place
    fault-injection rebuilds — so the tables always describe the *current*
    plant.  All fields are plain floats or small per-gear arrays; building
    them costs microseconds.
    """

    def __init__(self, solver) -> None:
        # Late import: solver.py owns the tolerance constants (and imports
        # this module at load time).
        from repro.powertrain.solver import _WINDOW_EDGE_TOL, _WINDOW_SLACK

        params = solver.params
        body = params.body
        batt = params.battery
        trans = params.transmission
        motor = params.motor

        # --- road load (paper Eq. 5-7), seed association order ---
        self.wheel_radius = float(body.wheel_radius)
        self.mass = float(body.mass)
        self.mass_x_gravity = body.mass * GRAVITY
        self.rolling_resistance = float(body.rolling_resistance)
        self.aero_factor = (
            0.5 * AIR_DENSITY * body.drag_coefficient * body.frontal_area)

        # --- battery (Rint model) ---
        self.capacity = float(batt.capacity)
        self.coulombic_efficiency = float(batt.coulombic_efficiency)
        self.voltage_at_empty = float(batt.voltage_at_empty)
        self.voc_span = batt.voltage_at_full - batt.voltage_at_empty
        self.discharge_resistance = float(batt.discharge_resistance)
        self.charge_resistance = float(batt.charge_resistance)
        self.four_rd = 4.0 * batt.discharge_resistance
        self.two_rd = 2.0 * batt.discharge_resistance
        self.four_rc = 4.0 * batt.charge_resistance
        self.two_rc = 2.0 * batt.charge_resistance
        self.max_current = float(batt.max_current)
        self.current_tol = batt.max_current + 1e-9
        self.window_lo = batt.soc_min - _WINDOW_SLACK - _WINDOW_EDGE_TOL
        self.window_hi = batt.soc_max + _WINDOW_SLACK + _WINDOW_EDGE_TOL

        # --- motor envelope / efficiency-map constants ---
        self.motor_max_speed = float(motor.max_speed)
        self.motor_speed_bound = motor.max_speed + 1e-9
        self.motor_peak_efficiency = float(motor.peak_efficiency)
        self.motor_efficiency_floor = float(motor.efficiency_floor)
        self.motor_opt_speed_fraction = float(motor.optimal_speed_fraction)
        self.motor_opt_torque_fraction = float(motor.optimal_torque_fraction)
        self.motor_max_torque = float(motor.max_torque)
        self.motor_max_power = float(motor.max_power)
        self.motor_base_speed = float(motor.base_speed)

        # --- engine admissible speed band (honours substituted engines) ---
        self.engine_min_speed = float(solver._engine_min_speed)
        self.engine_max_speed = float(solver._engine_max_speed)

        # Fuel-map constants for the parametric engine.  Substituted engine
        # models (e.g. TabulatedEngine) keep their own fuel methods and the
        # kernel falls back to calling them, so these are only derived — and
        # only trusted — when the active engine is the stock class.
        from repro.vehicle.engine import Engine
        self.engine_parametric = type(solver.engine) is Engine
        if self.engine_parametric:
            ep = solver.engine.params
            self.eng_peak_efficiency = float(ep.peak_efficiency)
            self.eng_efficiency_floor = float(ep.efficiency_floor)
            self.eng_opt_torque_fraction = float(ep.optimal_torque_fraction)
            self.eng_opt_speed = float(ep.optimal_speed)
            self.eng_speed_span = ep.max_speed - ep.min_speed
            self.eng_speed_falloff = float(ep.speed_falloff)
            self.eng_torque_falloff = float(ep.torque_falloff)
            self.eng_fuel_energy_density = float(ep.fuel_energy_density)
            self.eng_idle_fuel_rate = float(ep.idle_fuel_rate)
            self.eng_fuel_max_speed = float(ep.max_speed)
            # Wide-open-throttle curve (Engine.max_torque).
            self.eng_max_torque = float(ep.max_torque)
            self.eng_max_power = float(ep.max_power)
            self.eng_peak_torque_speed = float(ep.peak_torque_speed)
            self.eng_curve_width = float(solver.engine._curve_width)

        # --- transmission (Eq. 8-10) ---
        self.reduction_ratio = float(trans.reduction_ratio)
        self.reduction_efficiency = float(trans.reduction_efficiency)
        self.inv_reduction_efficiency = 1.0 / trans.reduction_efficiency
        self.gearbox_efficiency = float(trans.gearbox_efficiency)
        self.inv_gearbox_efficiency = 1.0 / trans.gearbox_efficiency
        self.num_gears = int(trans.num_gears)
        self.ratios = np.asarray(trans.gear_ratios, dtype=float)
        # Denominator of the positive-torque branch of Eq. 8 inversion:
        # T_shaft = T_wh / (R(k) * eta_gb).
        self.ratio_x_gb_eta = self.ratios * trans.gearbox_efficiency
        # Denominators of motor_torque_from_shaft (sign-uniform per step):
        # s / (rho * eta_red) motoring, s / (rho * (1/eta_red)) generating.
        self.rho_x_red_eta = trans.reduction_ratio * trans.reduction_efficiency
        self.rho_x_inv_red_eta = trans.reduction_ratio * (
            1.0 / trans.reduction_efficiency)

    # ------------------------------------------------------------- helpers ---

    def tractive_force(self, speed: float, acceleration: float,
                       grade: float) -> np.float64:
        """Scalar ``VehicleDynamics.road_load(...).total``, N.

        The same terms in the same association order, on Python floats
        (``speed * speed`` is what ``speed ** 2`` computes on an array).
        """
        rolling = (self.mass_x_gravity * np.cos(grade)
                   * self.rolling_resistance if speed > 1e-9 else 0.0)
        return (self.mass * acceleration + self.mass_x_gravity * np.sin(grade)
                + rolling + self.aero_factor * (speed * speed))

    def motor_torque_limits(self, speeds: Sequence[float]) -> np.ndarray:
        """``Motor.max_torque`` at a few speeds (one per gear), N*m.

        A Python loop: for five gears it costs a third of the model's
        nine array calls, with the same arithmetic per element.
        """
        limits = []
        for speed in speeds:
            if 0.0 <= speed <= self.motor_max_speed:
                if speed <= self.motor_base_speed:
                    limits.append(self.motor_max_torque)
                else:
                    limits.append(min(self.motor_max_torque,
                                      self.motor_max_power / max(speed, 1e-9)))
            else:
                limits.append(0.0)
        return np.array(limits)

    def engine_torque_limits(self, speeds: Sequence[float]) -> np.ndarray:
        """Parametric ``Engine.max_torque`` at a few speeds, N*m (as above)."""
        limits = []
        for speed in speeds:
            if self.engine_min_speed <= speed <= self.engine_max_speed:
                rel = ((speed - self.eng_peak_torque_speed)
                       / self.eng_curve_width)
                curve = self.eng_max_torque * (1.0 - 0.35 * (rel * rel))
                # The band starts above 0, so the power limit is finite.
                torque = min(curve, self.eng_max_power / max(speed, 1e-9))
                limits.append(torque if torque > 0.0 else 0.0)
            else:
                limits.append(0.0)
        return np.array(limits)


class ActionGridWorkspace:
    """A fixed candidate action grid bound to a solver, with reusable state.

    Construction validates and freezes the grid; the grid-static arrays
    (everything independent of the driver state) are derived lazily and
    re-derived automatically whenever the bound solver is rebuilt in place
    (fault injection re-runs ``PowertrainSolver.__init__``, which bumps the
    solver's configuration epoch).

    The per-step output and scratch arrays are preallocated once and
    **reused** by every :meth:`~repro.powertrain.solver.PowertrainSolver.evaluate_grid`
    call, so a returned :class:`BatchResult` is a view that is only valid
    until the next call on the same workspace.  Callers that need to keep a
    result across steps must copy it (or use ``evaluate_actions``, which
    allocates).
    """

    def __init__(self, solver, currents, gears, aux_powers) -> None:
        currents = np.ascontiguousarray(currents, dtype=float)
        gears = np.ascontiguousarray(gears, dtype=int)
        aux = np.ascontiguousarray(aux_powers, dtype=float)
        if not (len(currents) == len(gears) == len(aux)):
            raise ConfigurationError(
                "action component arrays must be index-aligned")
        self._solver = solver
        self.currents = currents
        self.gears = gears
        self.aux = aux
        self.n = len(currents)
        self._epoch = -1
        self._scratch = {}
        # Immutable per-grid constants that survive solver rebuilds.  Gear
        # validation is deferred to the moving kernel so that a standstill
        # evaluation of out-of-range gears behaves exactly like the seed
        # solver (which never indexed the ratio table at v = 0).
        self.gear_out_of_range = bool(
            self.n and np.any((gears < 0)
                              | (gears >= solver.transmission.num_gears)))
        self.gear_unique, self.gear_inv = np.unique(gears,
                                                    return_inverse=True)
        self.gear_inv = np.ascontiguousarray(self.gear_inv)
        self.aux_max0 = np.maximum(aux, 0.0)
        self.aux_min0 = np.minimum(aux, 0.0)
        self.aux_nonneg = aux >= 0.0
        self.zeros = np.zeros(self.n)
        self.ones_bool = np.ones(self.n, dtype=bool)
        self.idle_mode = np.zeros(self.n, dtype=int)
        self._sync()

    # ----------------------------------------------------------- lifecycle ---

    @property
    def solver(self):
        """The solver this workspace is bound to."""
        return self._solver

    def _sync(self) -> None:
        """Re-derive grid statics from the solver's current tables."""
        tables = self._solver.tables
        self.i_cmd = np.clip(self.currents, -tables.max_current,
                             tables.max_current)
        r_cmd = np.where(self.i_cmd >= 0.0, tables.discharge_resistance,
                         tables.charge_resistance)
        self.ri2_cmd = r_cmd * self.i_cmd ** 2
        # Standstill current-for-power discriminant terms over the static
        # auxiliary draws (seed association: (4 R) * clamped power).
        self.four_rd_aux = tables.four_rd * self.aux_max0
        self.four_rc_aux = tables.four_rc * self.aux_min0
        # A plant rebuild may change the gear count (exotic, but cheap to
        # keep correct).
        self.gear_out_of_range = bool(
            self.n and np.any((self.gears < 0)
                              | (self.gears >= tables.num_gears)))
        # Gear ratios gathered once per grid: per unique gear for the
        # quantities the moving kernel evaluates per gear, and per action
        # for those that cost one ufunc on the whole grid.
        if not self.gear_out_of_range:
            self.ratio_u = tables.ratios[self.gear_unique]
            self.ratio = tables.ratios[self.gears]
            self.ratio_x_gb_eta_u = tables.ratio_x_gb_eta[self.gear_unique]
            self.ratio_x_gb_eta = tables.ratio_x_gb_eta[self.gears]
        self._epoch = self._solver._epoch

    def ensure_current(self) -> None:
        """Refresh grid statics if the solver was rebuilt since last use."""
        if self._epoch != self._solver._epoch:
            self._sync()

    # ------------------------------------------------------------- buffers ---

    def buf(self, name: str) -> np.ndarray:
        """A reusable float scratch/output array of grid length."""
        arr = self._scratch.get(name)
        if arr is None:
            arr = np.empty(self.n)
            self._scratch[name] = arr
        return arr
