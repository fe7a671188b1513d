"""Standard regulatory and project drive cycles (synthesised).

:func:`standard_cycle` returns a deterministic synthetic cycle matched to
the published summary statistics of the named cycle:

* **UDDS** — EPA Urban Dynamometer Driving Schedule: 1369 s, ~12.07 km,
  mean 31.5 km/h, max 91.2 km/h, 17 stops.
* **HWFET** — EPA Highway Fuel Economy Test: 765 s, ~16.45 km, mean
  77.7 km/h, max 96.4 km/h, essentially no intermediate stops.
* **SC03** — EPA air-conditioning (SFTP) cycle: 600 s, ~5.76 km, mean
  34.8 km/h, max 88.2 km/h, 5 stops.
* **US06** — EPA aggressive (SFTP) cycle: 600 s, ~12.8 km, mean 77.9 km/h,
  max 129.2 km/h.
* **NYCC** — New York City Cycle: 598 s, ~1.90 km, mean 11.4 km/h, max
  44.6 km/h, dense stop-and-go.
* **OSCAR** — urban cycle from the E.U. OSCAR project (the paper's first
  test profile): modelled as a ~900 s European urban cycle, mean 25 km/h,
  max 60 km/h.
* **MODEM** — urban cycle from the E.U. MODEM project (Modelling of
  Emissions and Fuel Consumption in Urban Areas): modelled as a ~806 s
  European urban cycle, mean 29 km/h, max 70 km/h.

The OSCAR and MODEM source data were never released as open files; the specs
above are representative European urban profiles, which preserves the
urban-vs-highway contrast the paper's evaluation relies on.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.cycles.cycle import DriveCycle
from repro.cycles.synthesis import CycleSpec, synthesize
from repro.errors import CycleLookupError

STANDARD_SPECS: Dict[str, CycleSpec] = {
    "UDDS": CycleSpec(
        name="UDDS", duration=1369, mean_speed_kmh=31.5, max_speed_kmh=91.2,
        stop_count=17, idle_fraction=0.19, accel_max=1.3, decel_max=1.5,
        seed=101),
    "HWFET": CycleSpec(
        name="HWFET", duration=765, mean_speed_kmh=77.7, max_speed_kmh=96.4,
        stop_count=1, idle_fraction=0.01, accel_max=1.2, decel_max=1.4,
        speed_jitter=0.05, seed=102),
    "SC03": CycleSpec(
        name="SC03", duration=600, mean_speed_kmh=34.8, max_speed_kmh=88.2,
        stop_count=5, idle_fraction=0.18, accel_max=1.4, decel_max=1.6,
        seed=103),
    "US06": CycleSpec(
        name="US06", duration=600, mean_speed_kmh=77.9, max_speed_kmh=129.2,
        stop_count=4, idle_fraction=0.07, accel_max=1.5, decel_max=1.8,
        seed=104),
    "NYCC": CycleSpec(
        name="NYCC", duration=598, mean_speed_kmh=11.4, max_speed_kmh=44.6,
        stop_count=11, idle_fraction=0.32, accel_max=1.4, decel_max=1.6,
        seed=105),
    "OSCAR": CycleSpec(
        name="OSCAR", duration=900, mean_speed_kmh=25.0, max_speed_kmh=60.0,
        stop_count=12, idle_fraction=0.22, accel_max=1.3, decel_max=1.5,
        seed=106),
    "MODEM": CycleSpec(
        name="MODEM", duration=806, mean_speed_kmh=29.0, max_speed_kmh=70.0,
        stop_count=9, idle_fraction=0.20, accel_max=1.3, decel_max=1.5,
        seed=107),
}
"""Specs of every built-in cycle, keyed by canonical upper-case name."""


_SYNTHESISED: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
"""Read-only ``(speeds, grades)`` of each built-in cycle synthesised so far."""


def standard_cycle(name: str) -> DriveCycle:
    """A built-in cycle by (case-insensitive) name.

    Each cycle is synthesised once per process; every call returns a
    fresh :class:`DriveCycle` over the same read-only ``speeds`` and
    ``grades`` arrays, so writing into them raises ``ValueError``
    instead of corrupting the next caller's cycle.
    """
    key = name.upper()
    if key not in STANDARD_SPECS:
        raise CycleLookupError(
            f"unknown cycle {name!r}; available: {sorted(STANDARD_SPECS)}")
    traces = _SYNTHESISED.get(key)
    if traces is None:
        cycle = synthesize(STANDARD_SPECS[key])
        traces = (cycle.speeds, cycle.grades)
        for array in traces:
            array.flags.writeable = False
        _SYNTHESISED[key] = traces
    speeds, grades = traces
    return DriveCycle(STANDARD_SPECS[key].name, speeds, dt=1.0,
                      grades=grades)
