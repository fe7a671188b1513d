#!/usr/bin/env python3
"""CI smoke test: telemetry must capture a guarded faulted drive end to end.

Runs one UDDS episode under a :class:`repro.safety.SafetySupervisor` with a
mid-cycle engine fault, plus a two-task supervised sweep, with a
:class:`repro.telemetry.Telemetry` session writing to a temporary JSONL
file.  The run must

1. produce an event file whose every record passes schema validation
   (:func:`repro.telemetry.read_events` re-validates on read),
2. contain the expected narrative: ``sim.episode`` and ``exec.sweep``
   spans, ``episode`` / ``step`` / ``task`` events, at least one
   ``guard_intervention``, and a closing ``metrics_snapshot``,
3. render through ``repro telemetry report`` without error.

Exits non-zero with a message on the first broken invariant.  Run from
anywhere: ``python scripts/smoke_telemetry.py``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import default_vehicle  # noqa: E402
from repro.control import RuleBasedController  # noqa: E402
from repro.cycles import udds  # noqa: E402
from repro.exec import Supervisor, Task  # noqa: E402
from repro.faults.models import (  # noqa: E402
    AuxLoadSpike,
    EnginePowerLoss,
    MotorDerating,
)
from repro.faults.schedule import (  # noqa: E402
    FaultSchedule,
    ScheduledFault,
)
from repro.powertrain.solver import PowertrainSolver  # noqa: E402
from repro.safety import SafetySupervisor, SupervisorConfig  # noqa: E402
from repro.sim import Simulator, evaluate  # noqa: E402
from repro.telemetry import Telemetry, read_events, summarize  # noqa: E402


def main() -> int:
    # The same catastrophic combined fault as tests/test_smoke.py, with
    # hair-trigger thresholds, so guard interventions and a health
    # transition are guaranteed to appear in the event stream.
    faults = FaultSchedule([
        ScheduledFault(EnginePowerLoss(power_loss=0.9), start=40.0),
        ScheduledFault(MotorDerating(power_derate=0.9, torque_derate=0.9),
                       start=40.0, ramp=10.0),
        ScheduledFault(AuxLoadSpike(extra_power=1500.0), start=40.0),
    ])
    config = SupervisorConfig(escalate_after=2, recover_after=10_000,
                              infeasible_warn_after=3,
                              infeasible_severe_after=8,
                              soc_warn_after=5, soc_severe_after=30)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "smoke.jsonl"
        with Telemetry(path, step_sample_every=25) as telemetry:
            solver = PowertrainSolver(default_vehicle())
            simulator = Simulator(solver, telemetry=telemetry)
            supervisor = SafetySupervisor(RuleBasedController(solver),
                                          solver, config=config,
                                          telemetry=telemetry)
            result = evaluate(simulator, supervisor, udds(), faults=faults)
            executor = Supervisor(retries=0, telemetry=telemetry)
            sweep = executor.run([
                Task(key="probe-1", fn=lambda: 1, spec={"probe": 1}),
                Task(key="probe-2", fn=lambda: 2, spec={"probe": 2}),
            ])

        # read_events re-validates the schema of every record.
        records = read_events(path)
        types = {record["type"] for record in records}
        spans = [r["name"] for r in records if r["type"] == "span"]

        assert result.safety is not None, "no safety report attached"
        assert sweep.results == {"probe-1": 1, "probe-2": 2}, \
            f"unexpected sweep results: {sweep.results}"
        for expected in ("telemetry", "episode", "step", "task",
                         "guard_intervention", "health_transition",
                         "metrics_snapshot"):
            assert expected in types, \
                f"event file is missing {expected!r} records (got {types})"
        assert "sim.episode" in spans, f"no sim.episode span in {spans}"
        assert "exec.sweep" in spans, f"no exec.sweep span in {spans}"
        assert spans.count("exec.task") == 2, \
            f"expected 2 exec.task spans, got {spans.count('exec.task')}"

        report = summarize(path)
        for needle in ("telemetry report:", "sim.episode",
                       "supervised tasks: 2 (ok=2)"):
            assert needle in report, \
                f"rendered report is missing {needle!r}:\n{report}"

    interventions = sum(1 for r in records
                        if r["type"] == "guard_intervention")
    print("smoke_telemetry: OK "
          f"({len(records)} validated events, {len(spans)} spans, "
          f"{interventions} guard intervention(s), report renders)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
