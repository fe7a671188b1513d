#!/usr/bin/env python3
"""Lint: public API-boundary modules must raise structured errors.

The migration to the :mod:`repro.errors` hierarchy is pinned here: modules
declared below are the library's API boundaries, and raising a bare
``ValueError`` or ``RuntimeError`` from one of them would leak an
unstructured exception to callers that are promised ``ReproError``
subclasses (the CLI's clean error reporting depends on that promise).

Exits non-zero listing every offending ``raise`` site.  Run from anywhere:
``python scripts/check_no_bare_raise.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Tuple

API_BOUNDARY_MODULES = [
    "src/repro/cli.py",
    "src/repro/artifact.py",
    "src/repro/errors.py",
    "src/repro/fsio.py",
    "src/repro/journal.py",
    "src/repro/chaos/*.py",
    "src/repro/exec/*.py",
    "src/repro/learn/*.py",
    "src/repro/serve/*.py",
    "src/repro/faults/*.py",
    "src/repro/sim/*.py",
    "src/repro/safety/*.py",
    "src/repro/telemetry/*.py",
    "src/repro/rl/persistence.py",
    "src/repro/rl/qtable.py",
    "src/repro/rl/reward.py",
    "src/repro/powertrain/solver.py",
    "src/repro/powertrain/operating_point.py",
    "src/repro/powertrain/tables.py",
    "src/repro/powertrain/reference.py",
    "src/repro/cycles/cycle.py",
    "src/repro/cycles/io.py",
    "src/repro/vehicle/battery.py",
    "src/repro/vehicle/auxiliary.py",
]
"""Glob patterns (relative to the repo root) of the declared boundaries."""

BANNED = ("ValueError", "RuntimeError")
"""Exception names that must not be raised bare at an API boundary."""


def offending_raises(path: Path) -> List[Tuple[int, str]]:
    """``(line, exception_name)`` for every banned raise in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(target, ast.Name) and target.id in BANNED:
            bad.append((node.lineno, target.id))
    return bad


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    problems = []
    for pattern in API_BOUNDARY_MODULES:
        files = sorted(root.glob(pattern))
        if not files:
            problems.append(f"{pattern}: declared boundary matched no files")
            continue
        for path in files:
            for lineno, name in offending_raises(path):
                problems.append(
                    f"{path.relative_to(root)}:{lineno}: raises bare {name} "
                    "(use a repro.errors class)")
    if problems:
        print("check_no_bare_raise: FAIL", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"check_no_bare_raise: OK "
          f"({len(API_BOUNDARY_MODULES)} boundary patterns clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
