"""Golden equivalence: step resolution vs the frozen controller tails.

Every controller ends a step by executing one row of a solver batch.
:meth:`ExecutedStep.of_row` builds that step for all of them, with the
least-bad fallback of :meth:`BatchResult.least_bad`; before, each
baseline controller carried its own copy of the tail, frozen in
``tests/reference_controllers.py``.  These tests demand the same bytes
in every field:

* over real ``evaluate_actions`` batches (Hypothesis-drawn driver
  demands, charges and grids, all-infeasible batches included), for the
  controllers' rows and for the safety supervisor's substitutes, which
  the seed scored from Python floats instead of numpy scalars;
* for the envelope's choice of substitute row, against the frozen
  ``resolve`` of ``tests/reference_step.py``;
* over one episode per baseline controller on NYCC and on a drive of
  hard launches up a grade, where every controller falls back.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control import (ConventionalController, DPController,
                           ECMSController, RuleBasedController,
                           ThermostatController)
from repro.control.dp import DPConfig, solve_dp
from repro.cycles import standard_cycle
from repro.cycles.cycle import DriveCycle
from repro.powertrain import PowertrainSolver
from repro.rl.agent import ExecutedStep
from repro.rl.reward import build_reward_function
from repro.safety import FeasibilityEnvelope
from repro.sim import Simulator
from repro.vehicle import default_vehicle
from tests.reference_controllers import (ReferenceConventional, ReferenceDP,
                                         ReferenceECMS, ReferenceRuleBased,
                                         ReferenceThermostat, reference_tail)
from tests.reference_step import ReferenceEnvelope
from tests.test_learning_equivalence import assert_bit_identical

SOLVER = PowertrainSolver(default_vehicle())
REWARD = build_reward_function(SOLVER)
_ECMS = ECMSController(SOLVER)
ECMS_GRID = (_ECMS._grid_currents, _ECMS._grid_gears, _ECMS._grid_aux)
GEARS = np.arange(SOLVER.transmission.num_gears)

_LAUNCH = np.concatenate([np.minimum(np.arange(12) * 4.0, 40.0),
                          np.full(6, 40.0), np.linspace(40.0, 0.0, 8),
                          np.zeros(3)])
HARD = DriveCycle("hard-launches", np.tile(_LAUNCH, 3),
                  grades=np.full(3 * len(_LAUNCH), 0.08))
"""Launches at 4 m/s^2 to 40 m/s up an 8% grade: no controller's action
set can carry most of it, so every controller falls back."""

FORCING = [
    # (speed, acceleration, soc, grade): demands nothing can meet, with
    # charges inside, at and far outside the SoC window, so that the
    # least-bad rule's demand, window and shortfall terms all compete.
    (40.0, 4.0, 0.60, 0.08),
    (30.0, 5.0, 0.41, 0.0),
    (12.0, 4.0, 0.79, 0.08),
    (20.0, 3.0, 0.25, 0.06),
    (25.0, 4.0, 0.95, 0.05),
    # On the ECMS grid these two pick another row if the window weight
    # moves from 1e3 to 1e2.
    (15.7, 4.0, 0.37, 0.02),
    (25.3, 2.0, 0.28, -0.04),
]

DPCONFIG = DPConfig(soc_nodes=5, current_levels=5, aux_levels=2)
CONTROLLERS = {
    "rule_based": (RuleBasedController, ReferenceRuleBased),
    "thermostat": (ThermostatController, ReferenceThermostat),
    "ecms": (ECMSController, ReferenceECMS),
    "conventional": (ConventionalController, ReferenceConventional),
    "dp": (DPController, ReferenceDP),
}


def _batch(speed, acceleration, soc, grade, grid, current):
    """A real solver batch: the ECMS grid, or one current in every gear
    at the preferred auxiliary draw (the rule-based shape)."""
    if grid == "ecms":
        currents, gears, aux = ECMS_GRID
    else:
        currents = np.full(len(GEARS), current)
        gears = GEARS
        aux = np.full(len(GEARS), SOLVER.auxiliary.utility.argmax(
            SOLVER.auxiliary.max_power))
    return SOLVER.evaluate_actions(speed, acceleration, soc, currents, gears,
                                   aux, 1.0, grade)


def _assert_rows_match(batch, soc, p_dem, pick):
    """The controller path (a feasible row, or None when there is none)
    and the supervisor path (any row, seed-scored from Python floats)."""
    feasible = np.flatnonzero(batch.feasible)
    row = int(feasible[pick % len(feasible)]) if len(feasible) else None
    assert_bit_identical(ExecutedStep.of_row(batch, row, REWARD, soc, 1.0,
                                             p_dem),
                         reference_tail(REWARD, batch, row, soc, 1.0, p_dem),
                         f"controller row {row}")

    row = pick % len(batch)
    fuel_rate = float(batch.fuel_rate[row])
    aux_power = float(batch.aux_power[row])
    soc_next = float(batch.soc_next[row])
    shortfall = float(batch.shortfall[row])
    seed = ExecutedStep(
        state=7, rl_action=3, current=float(batch.battery_current[row]),
        gear=int(batch.gear[row]), aux_power=aux_power, fuel_rate=fuel_rate,
        soc_next=soc_next,
        reward=float(REWARD(fuel_rate, aux_power, 1.0, soc_next=soc_next,
                            soc_prev=soc, shortfall=shortfall)),
        paper_reward=float(REWARD.paper_reward(fuel_rate, aux_power, 1.0)),
        feasible=bool(batch.feasible[row]), mode=int(batch.mode[row]),
        power_demand=p_dem, shortfall=shortfall)
    assert_bit_identical(ExecutedStep.of_row(batch, row, REWARD, soc, 1.0,
                                             p_dem, state=7, rl_action=3),
                         seed, f"substitute row {row}")


_DEMANDS = st.one_of(
    st.tuples(st.floats(0.0, 40.0), st.floats(-4.0, 5.0),
              st.floats(0.2, 0.95), st.floats(-0.08, 0.08)),
    st.sampled_from(FORCING))


@settings(max_examples=150, deadline=None)
@given(demand=_DEMANDS, grid=st.sampled_from(["ecms", "gears"]),
       current=st.floats(-150.0, 150.0), pick=st.integers(0, 2 ** 20))
def test_of_row_matches_the_frozen_tails(demand, grid, current, pick):
    speed, acceleration, soc, grade = demand
    batch = _batch(speed, acceleration, soc, grade, grid, current)
    p_dem = float(SOLVER.dynamics.power_demand(speed, acceleration, grade))
    _assert_rows_match(batch, soc, p_dem, pick)


@settings(max_examples=150, deadline=None)
@given(demand=_DEMANDS, current=st.floats(-300.0, 300.0),
       gear=st.integers(-1, 6), aux=st.floats(0.0, 3000.0),
       derate=st.sampled_from([1.0, 0.6, 0.05]))
def test_envelope_resolve_matches_the_frozen_substitute(demand, current,
                                                        gear, aux, derate):
    speed, acceleration, soc, grade = demand
    args = (speed, acceleration, soc, 1.0, grade, current, gear, aux, derate)
    batch, row = FeasibilityEnvelope(SOLVER).resolve(*args)
    seed = ReferenceEnvelope(SOLVER).resolve(*args)
    assert_bit_identical(
        [float(batch.battery_current[row]), int(batch.gear[row]),
         float(batch.aux_power[row]), float(batch.fuel_rate[row]),
         float(batch.soc_next[row]), float(batch.shortfall[row]),
         bool(batch.feasible[row]), int(batch.mode[row])],
        [seed.current, seed.gear, seed.aux_power, seed.fuel_rate,
         seed.soc_next, seed.shortfall, seed.feasible, seed.mode],
        "substitute")


@pytest.mark.parametrize("grid", ["ecms", "gears"])
@pytest.mark.parametrize("demand", FORCING)
def test_all_infeasible_batches_fall_back_like_the_frozen_tail(demand,
                                                               grid):
    speed, acceleration, soc, grade = demand
    batch = _batch(speed, acceleration, soc, grade, grid, 60.0)
    assert not batch.feasible.any()
    p_dem = float(SOLVER.dynamics.power_demand(speed, acceleration, grade))
    for pick in range(len(batch)):
        _assert_rows_match(batch, soc, p_dem, pick)


@functools.lru_cache(maxsize=None)
def _dp_solution(drive):
    return solve_dp(PowertrainSolver(default_vehicle()), _cycle(drive),
                    config=DPCONFIG)


def _cycle(drive):
    return HARD if drive == "hard" else standard_cycle(drive)


def _episode(cls, drive, soc):
    solver = PowertrainSolver(default_vehicle())
    if issubclass(cls, DPController):
        controller = cls(solver, _dp_solution(drive), config=DPCONFIG)
    else:
        controller = cls(solver)
    return Simulator(solver).run_episode(controller, _cycle(drive),
                                         initial_soc=soc, learn=False,
                                         greedy=True)


@pytest.mark.parametrize("drive, soc", [("NYCC", 0.60), ("hard", 0.45)])
@pytest.mark.parametrize("name", sorted(CONTROLLERS))
def test_episode_matches_the_frozen_controller(name, drive, soc):
    production, reference = CONTROLLERS[name]
    fast = _episode(production, drive, soc)
    seed = _episode(reference, drive, soc)
    assert_bit_identical(fast, seed, f"{name} on {drive}")
    if drive == "hard":
        assert fast.fallback_steps > len(HARD) // 3
