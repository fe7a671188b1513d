"""End-to-end smoke drives (``pytest -m smoke``).

Each smoke drives a whole subsystem through one realistic scenario and
checks the invariants a user would notice if it broke.  They also run with
the tier-1 suite; CI runs them on their own with ``python -m pytest -m
smoke -q``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import default_vehicle
from repro.control import RuleBasedController
from repro.cycles import udds
from repro.faults.models import AuxLoadSpike, EnginePowerLoss, MotorDerating
from repro.faults.scenarios import Scenario
from repro.faults.schedule import FaultSchedule, ScheduledFault
from repro.powertrain.solver import PowertrainSolver
from repro.safety import SafetySupervisor, SupervisorConfig
from repro.sim import Simulator, evaluate


def severe_scenario() -> Scenario:
    """A catastrophic combined failure striking at t=40 s.

    Deliberately *not* one of the built-in studies: the built-ins model
    survivable degradation, whereas this one exists to prove the
    supervisor's escalation path end to end.
    """
    return Scenario(
        "smoke_catastrophic",
        "simultaneous near-total ICE and EM loss with a stuck heater",
        FaultSchedule([
            ScheduledFault(EnginePowerLoss(power_loss=0.9), start=40.0),
            ScheduledFault(MotorDerating(power_derate=0.9,
                                         torque_derate=0.9),
                           start=40.0, ramp=10.0),
            ScheduledFault(AuxLoadSpike(extra_power=1500.0), start=40.0),
        ]))


@pytest.mark.smoke
def test_guard_limps_home_through_a_severe_fault():
    """The safety supervisor must ride through a severe fault.

    One UDDS episode under a brutal mid-cycle fault — the engine and motor
    both lose most of their rating while an unsheddable auxiliary load
    appears — with hair-trigger monitor thresholds must complete the full
    cycle, escalate out of NOMINAL and finish in LIMP_HOME on the
    rule-based fallback, and keep every trace finite with a nonzero
    corrected MPG.
    """
    solver = PowertrainSolver(default_vehicle())
    simulator = Simulator(solver)
    # Hair-trigger thresholds: the run must escalate within a few seconds
    # of the fault, and must not recover before the cycle ends.
    config = SupervisorConfig(escalate_after=2, recover_after=10_000,
                              infeasible_warn_after=3,
                              infeasible_severe_after=8,
                              soc_warn_after=5, soc_severe_after=30)
    supervisor = SafetySupervisor(RuleBasedController(solver), solver,
                                  config=config)
    result = evaluate(simulator, supervisor, udds(),
                      faults=severe_scenario().schedule)

    report = result.safety
    assert report is not None, "episode result carries no safety report"
    assert not report.halted, "supervisor halted instead of limping home"
    assert report.final_mode == "LIMP_HOME", (
        f"expected the drive to end in LIMP_HOME, got {report.final_mode} "
        f"(time in mode: {report.time_in_mode()})")
    assert report.interventions > 0, "no guard interventions were recorded"
    assert any(t.target == "LIMP_HOME" for t in report.transitions), \
        "no transition into LIMP_HOME was journaled"
    for name, trace in (("fuel_rate", result.fuel_rate),
                        ("soc", result.soc), ("reward", result.reward)):
        assert np.all(np.isfinite(trace)), f"non-finite values in {name}"
    mpg = result.corrected_mpg()
    assert np.isfinite(mpg) and mpg > 0.0, \
        f"limp-home corrected MPG must be positive and finite, got {mpg}"
