#!/usr/bin/env python3
"""CI smoke test: a 3-seed chaos campaign must hold every invariant.

Runs the full fault catalog (torn/corrupt/duplicated/reordered journals,
ENOSPC on journal appends and table saves, slow I/O, SIGTERM-proof
hangs, bit flips and cuts in ``.rpa`` table files, a regressed
candidate) across 3 campaign seeds and requires what ``docs/ROBUSTNESS.md``
promises: 100% detection, 100% recovery on resumable faults, zero
invariant violations, and a deterministic campaign signature.

Exits non-zero with the rendered report on the first broken invariant.
Run from anywhere: ``python scripts/smoke_chaos.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.chaos import FAULT_KINDS, ChaosPlan, run_campaign  # noqa: E402

SEEDS = 3


def main() -> int:
    report = run_campaign(seeds=SEEDS,
                          progress=lambda line: print(f"  {line}",
                                                      file=sys.stderr))
    print(report.render())
    failures = []
    if report.detection_rate != 1.0:
        failures.append(f"detection rate {report.detection_rate:.0%} < 100%")
    if report.recovery_rate != 1.0:
        failures.append(f"recovery rate {report.recovery_rate:.0%} < 100%")
    if report.violations:
        failures.append(f"{len(report.violations)} invariant violation(s)")
    if report.faults != SEEDS * len(FAULT_KINDS):
        failures.append(f"ran {report.faults} faults, expected "
                        f"{SEEDS * len(FAULT_KINDS)} — coverage lied")
    for seed in range(SEEDS):
        if ChaosPlan.generate(seed) != ChaosPlan.generate(seed):
            failures.append(f"seed {seed}: fault plan is not deterministic")
    if failures:
        print("smoke_chaos: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"smoke_chaos: OK ({report.faults} faults over {SEEDS} seeds, "
          f"all detected, {report.recovered}/{report.resumable} "
          "resumable recovered)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
