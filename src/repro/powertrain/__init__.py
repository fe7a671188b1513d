"""Backward-looking powertrain solver for the parallel HEV.

Given the driver-imposed (speed, acceleration, grade) and a candidate
control action (battery current, gear, auxiliary power), the solver resolves
every dependent variable of Section 2.2 — engine and motor torque/speed,
actual battery current, fuel rate, friction-brake torque — and classifies
the operating mode.  Evaluation is vectorised over whole batches of
candidate actions, which is what makes tabular RL training tractable in
pure Python; controllers with a fixed candidate grid bind it once to an
:class:`ActionGridWorkspace` and drive the zero-allocation
:meth:`PowertrainSolver.evaluate_grid` hot path (see
``docs/PERFORMANCE.md``).  ``tests/reference_solver.py`` keeps the
frozen pre-vectorisation implementation the equivalence suite and the
kernel speedup gate compare against.
"""

from repro.powertrain.modes import OperatingMode
from repro.powertrain.operating_point import BatchResult, OperatingPoint
from repro.powertrain.solver import PowertrainSolver
from repro.powertrain.tables import ActionGridWorkspace, PowertrainTables

__all__ = [
    "OperatingMode",
    "OperatingPoint",
    "BatchResult",
    "PowertrainSolver",
    "PowertrainTables",
    "ActionGridWorkspace",
]
