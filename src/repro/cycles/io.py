"""CSV export for drive cycles.

:func:`save_csv` writes a :class:`DriveCycle` as a ``time_s, speed_ms,
grade_rad`` CSV file (``repro cycles --export``), the shape measured
traces usually come in.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Union

from repro.cycles.cycle import DriveCycle


def save_csv(cycle: DriveCycle, path: Union[str, Path]) -> None:
    """Write a cycle as a ``time_s, speed_ms, grade_rad`` CSV file."""
    path = Path(path)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["time_s", "speed_ms", "grade_rad"])
        for t, v, g in zip(cycle.times, cycle.speeds, cycle.grades):
            writer.writerow([f"{t:.3f}", f"{v:.6f}", f"{g:.6f}"])
