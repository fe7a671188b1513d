"""Named fault scenarios with a JSON round trip.

A *scenario* is a named, documented :class:`~repro.faults.schedule.FaultSchedule`.
The JSON format is deliberately flat — one object per scheduled fault,
holding the fault's own parameters plus its ``start``/``end``/``ramp``
schedule::

    {
      "name": "limp_home",
      "description": "combined degradation study",
      "faults": [
        {"kind": "battery_fade", "capacity_loss": 0.25,
         "resistance_growth": 0.5, "start": 60.0, "end": null, "ramp": 90.0},
        {"kind": "sensor", "target": "soc", "noise_std": 0.02,
         "dropout": 0.1, "start": 0.0, "end": null, "ramp": 0.0}
      ]
    }

Anything malformed raises :class:`repro.errors.FaultScenarioError` with a
message naming the offending entry.  The built-in scenarios cover the
standard degradation studies and double as format documentation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Union

from repro.errors import ConfigurationError, FaultScenarioError
from repro.faults.models import (
    AuxLoadSpike,
    BatteryFade,
    EnginePowerLoss,
    MotorDerating,
    SensorFault,
)
from repro.faults.schedule import FaultSchedule, ScheduledFault

_MODEL_KINDS = {cls.kind: cls for cls in (
    BatteryFade, MotorDerating, EnginePowerLoss, SensorFault, AuxLoadSpike)}

_SCHEDULE_KEYS = ("start", "end", "ramp")


@dataclass(frozen=True)
class Scenario:
    """A named fault schedule plus its documentation string."""

    name: str
    """Scenario identifier (also the CLI handle)."""

    description: str
    """One-line description of what the scenario models."""

    schedule: FaultSchedule
    """The faults, with their timing."""

    def to_dict(self) -> dict:
        """JSON-serialisable form (inverse of :func:`scenario_from_dict`)."""
        return {
            "name": self.name,
            "description": self.description,
            "faults": [entry.to_dict() for entry in self.schedule],
        }


def _fault_from_dict(doc: dict, index: int) -> ScheduledFault:
    if not isinstance(doc, dict):
        raise FaultScenarioError(
            f"fault #{index} must be an object; got {type(doc).__name__}")
    doc = dict(doc)
    kind = doc.pop("kind", None)
    cls = _MODEL_KINDS.get(kind)
    if cls is None:
        raise FaultScenarioError(
            f"fault #{index} has unknown kind {kind!r}; "
            f"expected one of {sorted(_MODEL_KINDS)}")
    timing = {key: doc.pop(key) for key in _SCHEDULE_KEYS if key in doc}
    try:
        fault = cls(**doc)
    except TypeError as exc:
        raise FaultScenarioError(
            f"fault #{index} ({kind}): bad parameters: {exc}") from exc
    except ConfigurationError as exc:
        raise FaultScenarioError(f"fault #{index} ({kind}): {exc}") from exc
    try:
        return ScheduledFault(fault, **timing)
    except TypeError as exc:
        raise FaultScenarioError(
            f"fault #{index} ({kind}): bad schedule: {exc}") from exc


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a :class:`Scenario` from its dictionary form."""
    if not isinstance(doc, dict):
        raise FaultScenarioError(
            f"a scenario must be a JSON object; got {type(doc).__name__}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise FaultScenarioError("a scenario needs a non-empty 'name'")
    faults = doc.get("faults")
    if not isinstance(faults, list) or not faults:
        raise FaultScenarioError(
            f"scenario {name!r} needs a non-empty 'faults' list")
    entries = [_fault_from_dict(entry, i) for i, entry in enumerate(faults)]
    return Scenario(name=name, description=str(doc.get("description", "")),
                    schedule=FaultSchedule(entries))


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load a scenario from a JSON file.

    Raises :class:`FaultScenarioError` on malformed content; a missing
    file surfaces as :class:`FileNotFoundError`.
    """
    path = Path(path)
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise FaultScenarioError(
                f"{path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def builtin_scenarios() -> Dict[str, Scenario]:
    """The built-in degradation studies, keyed by name.

    Timings assume episodes of a few hundred seconds or longer (every
    standard cycle qualifies); each scenario remains meaningful — just
    milder — on shorter synthetic cycles.
    """
    scenarios = [
        Scenario(
            "battery_fade",
            "aged pack: capacity fade and resistance growth ramping in",
            FaultSchedule([ScheduledFault(
                BatteryFade(capacity_loss=0.25, resistance_growth=0.6),
                start=60.0, ramp=120.0)])),
        Scenario(
            "motor_derate",
            "EM thermal foldback striking mid-drive",
            FaultSchedule([ScheduledFault(
                MotorDerating(power_derate=0.5, torque_derate=0.4),
                start=120.0, ramp=30.0)])),
        Scenario(
            "engine_limp",
            "sudden ICE power loss (limp-home map)",
            FaultSchedule([ScheduledFault(
                EnginePowerLoss(power_loss=0.4), start=90.0)])),
        Scenario(
            "noisy_sensors",
            "noisy, biased speed sensing and a flaky SoC gauge",
            FaultSchedule([
                ScheduledFault(SensorFault(target="soc", noise_std=0.02,
                                           dropout=0.15), start=30.0),
                ScheduledFault(SensorFault(target="speed", noise_std=0.8,
                                           bias=-0.5), start=30.0),
            ])),
        Scenario(
            "aux_spike",
            "intermittent unsheddable auxiliary load (stuck PTC heater)",
            FaultSchedule([
                ScheduledFault(AuxLoadSpike(extra_power=900.0),
                               start=45.0, end=150.0),
                ScheduledFault(AuxLoadSpike(extra_power=900.0),
                               start=240.0, end=330.0),
            ])),
        Scenario(
            "limp_home",
            "combined degradation: aged pack, derated EM, parasitic load, "
            "flaky SoC gauge",
            FaultSchedule([
                ScheduledFault(BatteryFade(capacity_loss=0.2,
                                           resistance_growth=0.4),
                               start=0.0, ramp=60.0),
                ScheduledFault(MotorDerating(power_derate=0.35,
                                             torque_derate=0.3),
                               start=90.0, ramp=30.0),
                ScheduledFault(AuxLoadSpike(extra_power=600.0), start=30.0),
                ScheduledFault(SensorFault(target="soc", noise_std=0.015,
                                           dropout=0.1), start=0.0),
            ])),
    ]
    return {s.name: s for s in scenarios}


def get_scenario(name_or_path: Union[str, Path]) -> Scenario:
    """Resolve a built-in scenario name or a scenario JSON path."""
    builtins = builtin_scenarios()
    key = str(name_or_path)
    if key in builtins:
        return builtins[key]
    if key and Path(key).is_file():
        return load_scenario(key)
    raise FaultScenarioError(
        f"unknown fault scenario {key!r}: not a built-in "
        f"({', '.join(sorted(builtins))}) and no such file")
