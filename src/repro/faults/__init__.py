"""Fault injection: degraded-mode simulation for robustness studies.

The subsystem composes three layers, none of which touches the physics
code in :mod:`repro.vehicle` or :mod:`repro.powertrain`:

* **Fault models** (:mod:`repro.faults.models`) — *plant* faults are pure
  functions that degrade a :class:`repro.vehicle.params.VehicleParams`
  (battery fade, motor thermal derating, engine power loss); *signal*
  faults distort what the controller observes (sensor noise/bias/dropout)
  or add an unsheddable auxiliary load spike.
* **Schedules** (:mod:`repro.faults.schedule`) — a
  :class:`FaultSchedule` activates, ramps, and clears faults at
  prescribed times, so a fault can strike mid-cycle.
* **Harness** (:mod:`repro.faults.harness`) — a :class:`FaultHarness`
  binds a schedule to a live :class:`~repro.powertrain.solver.PowertrainSolver`
  and mutates it in place as severities change, so the controller and the
  simulator both experience the degraded vehicle through the interfaces
  they already use.

Scenarios (named fault schedules) round-trip through JSON
(:mod:`repro.faults.scenarios`); a handful of built-ins cover the
standard degradation studies.  See ``docs/ROBUSTNESS.md``.
"""

from repro.faults.models import (
    AuxLoadSpike,
    BatteryFade,
    EnginePowerLoss,
    FaultModel,
    MotorDerating,
    PlantFault,
    SensorFault,
    SignalFault,
)
from repro.faults.schedule import FaultSchedule, ScheduledFault
from repro.faults.harness import FaultHarness
from repro.faults.scenarios import (
    Scenario,
    builtin_scenarios,
    get_scenario,
    load_scenario,
)

__all__ = [
    "FaultModel",
    "PlantFault",
    "SignalFault",
    "BatteryFade",
    "MotorDerating",
    "EnginePowerLoss",
    "SensorFault",
    "AuxLoadSpike",
    "ScheduledFault",
    "FaultSchedule",
    "FaultHarness",
    "Scenario",
    "builtin_scenarios",
    "get_scenario",
    "load_scenario",
]
