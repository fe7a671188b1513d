"""Tests of the backward-looking powertrain solver (Section 2.2 control flow)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.powertrain import OperatingMode, PowertrainSolver
from repro.vehicle import default_vehicle


@pytest.fixture(scope="module")
def solver():
    return PowertrainSolver(default_vehicle())


def evaluate_one(solver, v, a, soc, i, gear, aux, dt=1.0):
    return solver.evaluate(v, a, soc, i, gear, aux, dt)


class TestStandstill:
    def test_idle_mode(self, solver):
        pt = evaluate_one(solver, 0.0, 0.0, 0.6, 20.0, 0, 600.0)
        assert pt.mode == OperatingMode.IDLE
        assert pt.fuel_rate == 0.0
        assert pt.engine_torque == 0.0
        assert pt.motor_torque == 0.0

    def test_aux_drains_battery(self, solver):
        pt = evaluate_one(solver, 0.0, 0.0, 0.6, 0.0, 0, 600.0)
        assert pt.battery_current > 0.0
        assert pt.battery_power == pytest.approx(600.0, rel=1e-3)

    def test_commanded_current_ignored(self, solver):
        a = evaluate_one(solver, 0.0, 0.0, 0.6, -50.0, 0, 600.0)
        b = evaluate_one(solver, 0.0, 0.0, 0.6, 50.0, 0, 600.0)
        assert a.battery_current == pytest.approx(b.battery_current)


class TestModeCoverage:
    """The solver must produce all five paper operating modes."""

    def test_ice_only(self, solver):
        pt = evaluate_one(solver, 15.0, 0.3, 0.6, 0.0, 2, 600.0)
        # Small aux draw discharge means the EM torque is slightly negative
        # or negligible; engine carries the load.
        assert pt.engine_torque > 0.0

    def test_em_only(self, solver):
        pt = evaluate_one(solver, 5.0, 0.5, 0.7, 30.0, 2, 600.0)
        assert pt.mode == OperatingMode.EM_ONLY
        assert pt.engine_torque == 0.0
        assert pt.motor_torque > 0.0
        assert pt.fuel_rate == 0.0

    def test_hybrid(self, solver):
        pt = evaluate_one(solver, 20.0, 1.0, 0.6, 40.0, 2, 600.0)
        assert pt.mode == OperatingMode.HYBRID
        assert pt.engine_torque > 0.0
        assert pt.motor_torque > 0.0

    def test_charging_while_driving(self, solver):
        pt = evaluate_one(solver, 15.0, 0.2, 0.5, -20.0, 2, 600.0)
        assert pt.mode == OperatingMode.CHARGING
        assert pt.engine_torque > 0.0
        assert pt.motor_torque < 0.0
        assert pt.battery_current < 0.0

    def test_regen_braking(self, solver):
        pt = evaluate_one(solver, 12.0, -1.5, 0.6, -30.0, 2, 600.0)
        assert pt.mode == OperatingMode.REGEN
        assert pt.motor_torque < 0.0
        assert pt.fuel_rate == 0.0
        assert pt.battery_current < 0.0


class TestSaturationSemantics:
    def test_ev_when_engine_below_idle(self, solver):
        # In 5th gear at low speed the crankshaft would be below idle: the
        # engine must be declutched and the EM carry everything.
        pt = evaluate_one(solver, 4.0, 0.3, 0.7, 0.0, 4, 600.0)
        assert pt.engine_torque == 0.0
        assert pt.engine_speed == 0.0
        assert pt.fuel_rate == 0.0

    def test_em_overdelivery_cut_back(self, solver):
        # A huge discharge current at tiny demand: the EM would over-deliver,
        # so the solver must cut it back to exactly meet demand.
        pt = evaluate_one(solver, 10.0, 0.0, 0.7, 60.0, 1, 600.0)
        assert pt.feasible
        wheel = solver.transmission.wheel_torque(
            pt.engine_torque, pt.motor_torque, pt.gear)
        assert float(wheel) == pytest.approx(pt.wheel_torque, rel=1e-6)

    def test_brake_blends_regen_and_friction(self, solver):
        pt = evaluate_one(solver, 15.0, -2.5, 0.6, -60.0, 2, 600.0)
        assert pt.brake_torque < 0.0  # friction takes the remainder
        assert pt.motor_torque < 0.0  # regen active

    def test_no_motoring_against_brakes(self, solver):
        pt = evaluate_one(solver, 10.0, -1.0, 0.6, 40.0, 2, 600.0)
        assert pt.motor_torque <= 0.0

    def test_infeasible_when_demand_exceeds_everything(self, solver):
        # 3 m/s^2 at 30 m/s is ~135 kW: far beyond engine + motor.
        pt = evaluate_one(solver, 30.0, 3.0, 0.6, 60.0, 4, 600.0)
        assert not pt.feasible

    def test_window_blocks_discharge_below_slack(self, solver):
        # Beyond the solver's slack band a discharging action is infeasible.
        batch = solver.evaluate_actions(
            10.0, 0.0, solver.params.battery.soc_min - 0.02,
            [40.0], [1], [600.0], dt=1.0)
        assert not bool(batch.window_ok[0])
        assert not bool(batch.feasible[0])

    def test_window_blocks_charge_above_slack(self, solver):
        batch = solver.evaluate_actions(
            10.0, 0.0, solver.params.battery.soc_max + 0.02,
            [-40.0], [1], [600.0], dt=1.0)
        assert not bool(batch.window_ok[0])
        assert not bool(batch.feasible[0])

    def test_window_slack_tolerates_small_excursion(self, solver):
        # Just past the bound but inside the slack band stays solvable, so
        # boundary states always have at least one feasible action.
        batch = solver.evaluate_actions(
            10.0, 0.0, solver.params.battery.soc_min - 0.005,
            [0.0], [1], [600.0], dt=1.0)
        assert bool(batch.window_ok[0])


class TestBatchConsistency:
    def test_batch_matches_scalar(self, solver):
        currents = [-20.0, 0.0, 20.0]
        batch = solver.evaluate_actions(15.0, 0.3, 0.6, currents, [2, 2, 2],
                                        [600.0] * 3, dt=1.0)
        for idx, i in enumerate(currents):
            pt = evaluate_one(solver, 15.0, 0.3, 0.6, i, 2, 600.0)
            assert pt.fuel_rate == pytest.approx(float(batch.fuel_rate[idx]))
            assert pt.battery_current == pytest.approx(
                float(batch.battery_current[idx]))

    def test_rejects_misaligned_arrays(self, solver):
        with pytest.raises(ValueError):
            solver.evaluate_actions(10.0, 0.0, 0.6, [0.0, 1.0], [0], [600.0],
                                    dt=1.0)

    def test_rejects_nonpositive_dt(self, solver):
        with pytest.raises(ValueError):
            solver.evaluate_actions(10.0, 0.0, 0.6, [0.0], [0], [600.0],
                                    dt=0.0)


class TestPhysicalInvariants:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=30.0),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=0.42, max_value=0.78),
           st.floats(min_value=-60.0, max_value=60.0),
           st.integers(min_value=0, max_value=4),
           st.floats(min_value=200.0, max_value=2000.0))
    def test_invariants_hold_everywhere(self, v, a, soc, i, gear, aux):
        solver = PowertrainSolver(default_vehicle())
        pt = solver.evaluate(v, a, soc, i, gear, aux, dt=1.0)
        # Fuel can never be negative; brakes can never push.
        assert pt.fuel_rate >= 0.0
        assert pt.brake_torque <= 1e-9
        # Engine never back-driven.
        assert pt.engine_torque >= 0.0
        # Executed current within pack limits.
        imax = solver.params.battery.max_current
        assert abs(pt.battery_current) <= imax + 1e-6
        # Component envelopes respected on feasible points.
        if pt.feasible and pt.engine_speed > 0:
            assert pt.engine_torque <= float(
                solver.engine.max_torque(pt.engine_speed)) + 1e-6
        if pt.feasible:
            assert abs(pt.motor_torque) <= float(
                solver.motor.max_torque(pt.motor_speed)) + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.5, max_value=30.0),
           st.floats(min_value=-2.0, max_value=2.0),
           st.integers(min_value=0, max_value=4))
    def test_feasible_points_meet_demand(self, v, a, gear):
        solver = PowertrainSolver(default_vehicle())
        pt = solver.evaluate(v, a, 0.6, 10.0, gear, 600.0, dt=1.0)
        if pt.feasible and pt.wheel_torque >= 0:
            delivered = float(solver.transmission.wheel_torque(
                pt.engine_torque, pt.motor_torque, pt.gear))
            assert delivered == pytest.approx(pt.wheel_torque,
                                              rel=1e-5, abs=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.5, max_value=30.0),
           st.floats(min_value=-3.0, max_value=-0.2))
    def test_braking_energy_balance(self, v, a):
        # During braking, regen torque plus friction torque must equal the
        # demanded wheel torque.
        solver = PowertrainSolver(default_vehicle())
        pt = solver.evaluate(v, a, 0.6, -40.0, 2, 600.0, dt=1.0)
        if pt.wheel_torque < 0:
            powertrain_part = float(solver.transmission.wheel_torque(
                0.0, pt.motor_torque, pt.gear))
            assert powertrain_part + pt.brake_torque == pytest.approx(
                pt.wheel_torque, rel=1e-5, abs=1e-3)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.45, max_value=0.75),
           st.floats(min_value=-50.0, max_value=50.0))
    def test_soc_next_matches_coulomb_counting(self, soc, i):
        solver = PowertrainSolver(default_vehicle())
        batch = solver.evaluate_actions(15.0, 0.0, soc, [i], [2], [600.0],
                                        dt=1.0)
        state = solver.battery.initial_state(soc)
        stepped = solver.battery.step(state, float(batch.battery_current[0]),
                                      1.0)
        assert float(batch.soc_next[0]) == pytest.approx(
            solver.battery.soc(stepped), abs=1e-9)


class TestWindowEdge:
    """Regression: a post-step SoC landing *exactly* on the slackened
    window edge must be feasible.

    The edge is computed as ``soc_min - slack`` in floats (0.4 - 0.01 =
    0.39000000000000007), while a Coulomb round trip that mathematically
    lands on 0.39 produces the float 0.39 — a few ULPs *below* the
    computed edge.  Without the edge tolerance the raw comparison declared
    such landings infeasible.
    """

    def test_exact_edge_landing_is_feasible(self, solver):
        from repro.powertrain.solver import _WINDOW_SLACK
        p = solver.params.battery
        # 78 A for 3 s removes exactly 234 C = 1% of the 23 400 C pack:
        # a landing mathematically on the slackened floor.
        soc_next, window = solver._coulomb_count(np.array([78.0]),
                                                 p.soc_min, 3.0)
        # The float round trip puts the landing at or below the computed
        # edge (this is the situation that used to be rejected).
        assert soc_next[0] <= p.soc_min - _WINDOW_SLACK
        assert bool(window[0])

    def test_clearly_outside_still_infeasible(self, solver):
        p = solver.params.battery
        for soc in (p.soc_min - 0.02, p.soc_max + 0.02):
            _, window = solver._coulomb_count(np.zeros(1), soc, 1.0)
            assert not bool(window[0])
