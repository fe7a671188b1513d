"""Drive cycles: container, statistics, synthesis, and standard cycles.

The paper evaluates on EPA cycles (UDDS, SC03, HWFET) and European project
cycles (OSCAR, MODEM).  The original data files are not redistributable
here, so :mod:`repro.cycles.standard` synthesises each cycle from its
published summary statistics (duration, distance, mean/max speed, stop
count) with a deterministic micro-trip generator; :mod:`repro.cycles.io`
exports a cycle as CSV.
"""

from repro.cycles.cycle import DriveCycle
from repro.cycles.stats import CycleStats, compute_stats
from repro.cycles.synthesis import CycleSpec, synthesize
from repro.cycles.standard import STANDARD_SPECS, standard_cycle
from repro.cycles.io import save_csv
from repro.cycles.grade import net_zero_terrain, rolling_hills
from repro.cycles.markov import fit_chain, generate_trip

__all__ = [
    "rolling_hills",
    "net_zero_terrain",
    "fit_chain",
    "generate_trip",
    "DriveCycle",
    "CycleStats",
    "compute_stats",
    "CycleSpec",
    "synthesize",
    "STANDARD_SPECS",
    "standard_cycle",
    "save_csv",
]
