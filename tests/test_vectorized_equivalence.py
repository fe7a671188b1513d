"""Golden equivalence: the vectorized hot path vs the frozen seed solver.

The struct-of-arrays kernel (``repro.powertrain.solver``) must reproduce
the pre-refactor physics **bit-identically** — no tolerance.  The frozen
implementation lives in ``tests/reference_solver.py``:

* :class:`ReferencePowertrainSolver` — the seed batched path, verbatim;
* :class:`ScalarReferenceSolver` — the same physics one action at a time.

Covered here: randomized (speed, accel, SoC, grade) grids, full episodes
on every built-in cycle, guarded (:class:`SafetySupervisor`) runs,
fault-scenario runs (plant + sensor faults), and the kernel's rare
branches and its inlined road load and mode lookup.  Every field is
compared in dtype, shape and bytes, signed zeros and NaN payloads
included; any mismatch is a regression in the optimised kernel, not an
acceptable drift.
"""

from __future__ import annotations

import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control.rl_controller import build_rl_controller
from repro.cycles import STANDARD_SPECS, standard_cycle
from repro.faults.harness import FaultHarness
from repro.faults.scenarios import builtin_scenarios
from repro.powertrain import PowertrainSolver
from repro.powertrain.modes import classify
from repro.powertrain.solver import _TORQUE_TOL, _moving_mode
from repro.safety import SafetySupervisor
from repro.sim import Simulator
from repro.vehicle import default_vehicle
from repro.vehicle.dynamics import VehicleDynamics
from tests.reference_solver import (
    ReferencePowertrainSolver,
    ScalarReferenceSolver,
)

BATCH_FIELDS = (
    "feasible", "mode", "gear", "engine_speed", "engine_torque",
    "motor_speed", "motor_torque", "battery_current", "battery_power",
    "aux_power", "fuel_rate", "brake_torque", "meets_demand", "window_ok",
    "soc_next", "shortfall")

BATCH_SCALARS = ("power_demand", "wheel_speed", "wheel_torque")

EPISODE_FIELDS = (
    "speeds", "power_demand", "fuel_rate", "reward", "paper_reward", "soc",
    "current", "gear", "aux_power", "mode", "feasible", "shortfall")


def assert_same_bytes(fast, ref, label):
    """``fast`` and ``ref`` agree in dtype, shape and every byte."""
    a, b = np.asarray(fast), np.asarray(ref)
    assert (a.dtype, a.shape) == (b.dtype, b.shape), (
        f"{label} is {a.dtype}{a.shape}, the reference {b.dtype}{b.shape}")
    assert a.tobytes() == b.tobytes(), (
        f"{label} bytes diverged: {a} vs {b}")


def assert_batches_identical(fast, ref):
    for name in BATCH_FIELDS + BATCH_SCALARS:
        assert_same_bytes(getattr(fast, name), getattr(ref, name),
                          f"BatchResult.{name}")


def assert_episodes_identical(fast, ref):
    for name in EPISODE_FIELDS:
        assert_same_bytes(getattr(fast, name), getattr(ref, name),
                          f"EpisodeResult.{name}")
    if ref.fault_active is None:
        assert fast.fault_active is None
    else:
        assert_same_bytes(fast.fault_active, ref.fault_active,
                          "EpisodeResult.fault_active")


def random_state(rng):
    """One randomized driver demand, biased toward interesting regimes."""
    regime = rng.integers(4)
    if regime == 0:                       # standstill
        speed = 0.0
        accel = float(rng.uniform(-0.5, 0.5))
    elif regime == 1:                     # braking
        speed = float(rng.uniform(2.0, 30.0))
        accel = float(rng.uniform(-3.0, -0.2))
    else:                                 # cruising / accelerating
        speed = float(rng.uniform(0.5, 35.0))
        accel = float(rng.uniform(-0.5, 2.5))
    soc = float(rng.uniform(0.30, 0.90))
    grade = float(rng.choice([0.0, 0.0, rng.uniform(-0.08, 0.08)]))
    return speed, accel, soc, grade


def random_grid(rng, num_gears):
    n = int(rng.integers(1, 40))
    currents = rng.uniform(-90.0, 90.0, n)
    gears = rng.integers(0, num_gears, n)
    aux = rng.uniform(0.0, 2200.0, n)
    return currents, gears, aux


@pytest.fixture(scope="module")
def solvers():
    return (PowertrainSolver(default_vehicle()),
            ReferencePowertrainSolver(default_vehicle()))


class TestRandomizedGrids:
    def test_randomized_states_and_grids(self, solvers):
        fast, ref = solvers
        rng = np.random.default_rng(2024)
        num_gears = fast.transmission.num_gears
        for _ in range(80):
            speed, accel, soc, grade = random_state(rng)
            currents, gears, aux = random_grid(rng, num_gears)
            a = fast.evaluate_actions(speed, accel, soc, currents, gears,
                                      aux, 1.0, grade)
            b = ref.evaluate_actions(speed, accel, soc, currents, gears,
                                     aux, 1.0, grade)
            assert_batches_identical(a, b)

    def test_soc_window_edges(self, solvers):
        fast, ref = solvers
        battery = fast.params.battery
        rng = np.random.default_rng(7)
        num_gears = fast.transmission.num_gears
        for soc in (0.0, battery.soc_min, 0.5, battery.soc_max, 1.0):
            for _ in range(6):
                speed, accel, _, grade = random_state(rng)
                currents, gears, aux = random_grid(rng, num_gears)
                a = fast.evaluate_actions(speed, accel, soc, currents,
                                          gears, aux, 1.0, grade)
                b = ref.evaluate_actions(speed, accel, soc, currents,
                                         gears, aux, 1.0, grade)
                assert_batches_identical(a, b)

    def test_matches_scalar_reference(self):
        fast = PowertrainSolver(default_vehicle())
        scalar = ScalarReferenceSolver(default_vehicle())
        rng = np.random.default_rng(11)
        num_gears = fast.transmission.num_gears
        for _ in range(4):
            speed, accel, soc, grade = random_state(rng)
            currents, gears, aux = random_grid(rng, num_gears)
            a = fast.evaluate_actions(speed, accel, soc, currents, gears,
                                      aux, 1.0, grade)
            b = scalar.evaluate_actions(speed, accel, soc, currents, gears,
                                        aux, 1.0, grade)
            assert_batches_identical(a, b)

    def test_persistent_workspace_matches_throwaway(self, solvers):
        """evaluate_grid (reused buffers) == evaluate_actions (fresh)."""
        fast, _ = solvers
        rng = np.random.default_rng(3)
        num_gears = fast.transmission.num_gears
        currents, gears, aux = random_grid(rng, num_gears)
        ws = fast.workspace(currents, gears, aux)
        for _ in range(25):
            speed, accel, soc, grade = random_state(rng)
            a = fast.evaluate_grid(ws, speed, accel, soc, 1.0, grade)
            b = fast.evaluate_actions(speed, accel, soc, currents, gears,
                                      aux, 1.0, grade)
            assert_batches_identical(a, b)


def _episode(solver_cls, cycle, guard=False, faults=None, seed=5):
    solver = solver_cls(default_vehicle())
    simulator = Simulator(solver)
    controller = build_rl_controller(solver, variant="proposed", seed=seed)
    driver = (SafetySupervisor(controller, solver) if guard
              else controller)
    harness = (FaultHarness(solver, faults, seed=seed)
               if faults is not None else None)
    return simulator.run_episode(driver, cycle, learn=False, greedy=True,
                                 faults=harness)


@pytest.mark.parametrize("cycle_name", sorted(STANDARD_SPECS))
def test_full_cycle_episode_matches(cycle_name):
    """Greedy full-cycle drives are bit-identical on every built-in cycle."""
    cycle = standard_cycle(cycle_name)
    fast = _episode(PowertrainSolver, cycle)
    ref = _episode(ReferencePowertrainSolver, cycle)
    assert_episodes_identical(fast, ref)


def test_guarded_episode_matches():
    """SafetySupervisor-mediated drives stay bit-identical."""
    cycle = standard_cycle("nycc")
    fast = _episode(PowertrainSolver, cycle, guard=True)
    ref = _episode(ReferencePowertrainSolver, cycle, guard=True)
    assert_episodes_identical(fast, ref)
    assert (fast.safety is None) == (ref.safety is None)
    if fast.safety is not None:
        assert fast.safety.interventions == ref.safety.interventions
        assert fast.safety.final_mode == ref.safety.final_mode


@pytest.mark.parametrize("scenario_name", ["battery_fade", "noisy_sensors"])
def test_fault_scenario_episode_matches(scenario_name):
    """Degraded-mode drives (plant + sensor faults) stay bit-identical."""
    schedule = builtin_scenarios()[scenario_name].schedule
    cycle = standard_cycle("nycc")
    fast = _episode(PowertrainSolver, cycle, faults=schedule)
    ref = _episode(ReferencePowertrainSolver, cycle, faults=schedule)
    assert_episodes_identical(fast, ref)


@pytest.fixture
def rare_branch_calls(monkeypatch):
    """Count the moving kernel's calls into its two rare corrections."""
    calls = collections.Counter()
    for name in ("_shed_overcharge", "_feed_starved"):
        original = getattr(PowertrainSolver, name)

        def spy(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(PowertrainSolver, name, spy)
    return calls


class TestRareBranches:
    """The over-charge and starvation corrections, against the seed solver.

    Starvation fires on about 6% of UDDS moving steps with the agent's
    grid; over-charge fires on none of them with the default vehicle.  So
    each is forced by a chosen plant and state, checked to have fired, and
    every output compared byte for byte.
    """

    @pytest.mark.parametrize("speed, accel, soc", [
        (8.0, 1.2, 0.45), (30.0, 1.5, 0.42), (5.0, 2.0, 0.5)])
    def test_starved_branch(self, rare_branch_calls, speed, accel, soc):
        fast = PowertrainSolver(default_vehicle())
        ref = ReferencePowertrainSolver(default_vehicle())
        grid = build_rl_controller(fast, seed=1).agent._workspace
        batch = fast.evaluate_grid(grid, speed, accel, soc, 1.0)
        assert rare_branch_calls["_feed_starved"] == 1
        assert_batches_identical(batch, ref.evaluate_actions(
            speed, accel, soc, grid.currents, grid.gears, grid.aux, 1.0))

    @pytest.mark.parametrize("accel", [-6.0, -3.0, -1.5])
    def test_overcharge_branch(self, rare_branch_calls, accel):
        # A 25 A pack and a motor whose efficiency peaks at 60% of its
        # torque limit: commanding the current limit while braking lands a
        # few ULPs past it, which the over-charge branch sheds.
        base = default_vehicle()
        params = dataclasses.replace(
            base,
            battery=dataclasses.replace(base.battery, max_current=25.0),
            motor=dataclasses.replace(base.motor,
                                      optimal_torque_fraction=0.6))
        fast = PowertrainSolver(params)
        ref = ReferencePowertrainSolver(params)
        currents = np.repeat([-60.0, -25.0, -10.0, 0.0, 20.0], 10)
        gears = np.tile(np.repeat(np.arange(5), 2), 5)
        aux = np.tile([0.0, 1500.0], 25)
        grid = fast.workspace(currents, gears, aux)
        batch = fast.evaluate_grid(grid, 5.0, accel, 0.8, 1.0)
        assert rare_branch_calls["_shed_overcharge"] == 1
        assert_batches_identical(batch, ref.evaluate_actions(
            5.0, accel, 0.8, currents, gears, aux, 1.0))


def _with_neighbours(*values):
    """The values and the floats one ULP to either side of each."""
    out = []
    for v in values:
        out += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    return out


_TORQUES = st.one_of(
    st.sampled_from(_with_neighbours(_TORQUE_TOL, -_TORQUE_TOL, 0.0)
                    + [-0.0, math.inf, -math.inf, math.nan, -math.nan]),
    st.floats(allow_nan=True, allow_infinity=True))


class TestMovingModeLookup:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_TORQUES, _TORQUES), min_size=1, max_size=16),
           st.floats(min_value=1e-6, max_value=100.0, exclude_min=True))
    def test_matches_classify(self, torques, wheel_speed):
        engine = np.array([t[0] for t in torques])
        motor = np.array([t[1] for t in torques])
        lookup = _moving_mode(engine, motor)
        rules = classify(engine, motor, wheel_speed, False)
        assert lookup.dtype == rules.dtype
        assert lookup.tobytes() == rules.tobytes()


_SPEEDS = st.one_of(
    st.sampled_from(_with_neighbours(0.0, 1e-9) + [-0.0, -1.0, math.nan]),
    st.floats(min_value=-50.0, max_value=80.0))
_ACCELS = st.one_of(st.sampled_from([0.0, -0.0, -3.5, math.nan]),
                    st.floats(min_value=-10.0, max_value=10.0))
_GRADES = st.one_of(st.sampled_from([0.0, -0.0, 0.06, -0.06, math.nan]),
                    st.floats(min_value=-0.5, max_value=0.5))


_ROAD_LOAD_SOLVER = PowertrainSolver(default_vehicle())


class TestInlinedRoadLoad:
    @settings(max_examples=300, deadline=None)
    @given(_SPEEDS, _ACCELS, _GRADES)
    def test_matches_vehicle_dynamics(self, speed, accel, grade):
        solver = _ROAD_LOAD_SOLVER
        inline = solver.tables.tractive_force(speed, accel, grade)
        model = VehicleDynamics(solver.params.body).road_load(
            speed, accel, grade).total
        assert (np.float64(inline).tobytes()
                == np.asarray(model, dtype=float).tobytes())

