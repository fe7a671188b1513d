"""Robustness sweeps: controllers × fault scenarios, with graceful-
degradation metrics.

The protocol is the standard one for degraded-mode studies: every
controller is prepared (trained, tuned) on the *healthy* vehicle, then
evaluated greedily under each fault scenario it never saw coming.  Each
run is scored against the same controller's healthy drive:

* **MPG retention** — charge-corrected MPG under fault divided by the
  healthy figure (1.0 = no degradation; the headline metric),
* **SoC-window violations** — steps spent outside the healthy vehicle's
  charge-sustaining window,
* **fallback steps** — steps executed through the solver's graceful
  fallback because no commanded action was feasible,
* **fault activations** — how many times the schedule flipped from
  healthy to faulted during the drive.

Every run must complete with finite traces — the simulator's numerical
watchdog guarantees an exception, not a silent NaN, otherwise.

The grid executes through the supervised executor (:mod:`repro.exec`).
The default is the historical serial in-process loop; pass a
:class:`~repro.exec.Supervisor` to parallelise across isolated workers
and to survive individual run failures — quarantined runs are reported
in :attr:`RobustnessReport.failures` and the table covers the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.control.base import Controller
from repro.cycles.cycle import DriveCycle
from repro.errors import ConfigurationError
from repro.exec import Supervisor, Task, TaskFailure
from repro.faults.harness import FaultHarness
from repro.faults.scenarios import Scenario
from repro.sim.results import EpisodeResult
from repro.sim.simulator import Simulator

_HEALTHY = "(healthy)"


@dataclass(frozen=True)
class RobustnessRow:
    """Degradation metrics of one (controller, scenario) run."""

    controller: str
    """Controller name."""

    scenario: str
    """Scenario name (``"(healthy)"`` for the fault-free reference)."""

    corrected_mpg: float
    """Charge-corrected MPG of the run."""

    mpg_retention: float
    """``corrected_mpg`` relative to the same controller's healthy run."""

    window_violations: int
    """Steps outside the healthy charge-sustaining SoC window."""

    fallback_steps: int
    """Steps executed through the solver's fallback path."""

    fault_activations: int
    """Healthy-to-faulted transitions of the schedule during the drive."""

    faulted_steps: int
    """Steps driven with an active fault."""

    final_soc: float
    """State of charge at the end of the drive."""

    finite: bool
    """True when every recorded trace is finite (watchdog held)."""

    interventions: int = 0
    """Guard interventions of the run (0 for unguarded runs).  The guard
    fields default so rows persisted by pre-guard manifests still decode."""

    intervention_rate: float = 0.0
    """Interventions per mediated step (0.0 for unguarded runs)."""

    time_in_mode: Optional[Dict[str, int]] = None
    """Steps per supervisor health mode (None for unguarded runs)."""

    final_mode: str = ""
    """Supervisor health mode at the end of the run ("" when unguarded)."""


@dataclass
class RobustnessReport:
    """All rows of one robustness sweep."""

    rows: List[RobustnessRow] = field(default_factory=list)
    """One row per *surviving* (controller, scenario) run, healthy rows
    included."""

    failures: List[TaskFailure] = field(default_factory=list)
    """Quarantined runs (and runs skipped because their healthy reference
    was quarantined); empty for an all-successful sweep."""

    planned: int = 0
    """Runs the sweep set out to perform (0 for hand-built reports)."""

    @property
    def coverage(self) -> float:
        """Surviving fraction of the planned grid (1.0 when hand-built)."""
        if self.planned <= 0:
            return 1.0
        return len(self.rows) / self.planned

    def worst_retention(self) -> float:
        """Smallest MPG retention across all faulted runs."""
        faulted = [r.mpg_retention for r in self.rows
                   if r.scenario != _HEALTHY]
        if not faulted:
            raise ConfigurationError("report holds no faulted runs")
        return min(faulted)

    def limp_home_retention(self) -> float:
        """Smallest MPG retention among runs that spent steps in LIMP_HOME.

        The guarded sweep's headline: how much fuel economy the fallback
        controller preserves when the supervisor takes the learned policy
        out of the loop."""
        limp = [r.mpg_retention for r in self.rows
                if r.time_in_mode is not None
                and r.time_in_mode.get("LIMP_HOME", 0) > 0]
        if not limp:
            raise ConfigurationError(
                "report holds no runs that entered LIMP_HOME (was the "
                "sweep run with guard=True and severe enough scenarios?)")
        return min(limp)

    def render(self) -> str:
        """Human-readable sweep table (guard columns appear when any row
        carries supervisor metrics)."""
        guarded = any(r.time_in_mode is not None for r in self.rows)
        header = (
            f"{'scenario':15s} {'controller':12s} {'mpg':>7s} {'retain':>7s} "
            f"{'windowV':>8s} {'fallback':>9s} {'faulted':>8s} "
            f"{'activ.':>6s} {'SoC_f':>6s}")
        if guarded:
            header += f" {'interv':>7s} {'i.rate':>7s} {'mode_f':>9s}"
        lines = [
            "Robustness sweep: graceful degradation under injected faults",
            "(retention = corrected MPG vs the same controller, healthy)",
            "",
            header,
        ]
        for row in self.rows:
            line = (
                f"{row.scenario:15s} {row.controller:12s} "
                f"{row.corrected_mpg:7.1f} {row.mpg_retention:7.2f} "
                f"{row.window_violations:8d} {row.fallback_steps:9d} "
                f"{row.faulted_steps:8d} {row.fault_activations:6d} "
                f"{row.final_soc:6.2f}")
            if guarded:
                line += (f" {row.interventions:7d} "
                         f"{row.intervention_rate:7.3f} "
                         f"{row.final_mode or '-':>9s}")
            lines.append(line)
        if self.failures:
            lines.append("")
            lines.append(f"coverage: {len(self.rows)}/{self.planned} runs "
                         f"({len(self.failures)} quarantined)")
            for failure in self.failures:
                lines.append(f"  quarantined: {failure.describe()}")
        return "\n".join(lines)


def _finite(result: EpisodeResult) -> bool:
    return bool(np.all(np.isfinite(result.soc))
                and np.all(np.isfinite(result.fuel_rate))
                and np.all(np.isfinite(result.current)))


def _row(name: str, scenario: str, result: EpisodeResult, healthy_mpg: float,
         soc_min: float, soc_max: float, activations: int) -> RobustnessRow:
    mpg = result.corrected_mpg()
    safety = result.safety
    return RobustnessRow(
        controller=name, scenario=scenario, corrected_mpg=mpg,
        mpg_retention=mpg / healthy_mpg if healthy_mpg > 0 else 0.0,
        window_violations=result.window_violation_steps(soc_min, soc_max),
        fallback_steps=result.fallback_steps,
        fault_activations=activations,
        faulted_steps=result.faulted_steps,
        final_soc=result.final_soc,
        finite=_finite(result),
        interventions=safety.interventions if safety else 0,
        intervention_rate=safety.intervention_rate if safety else 0.0,
        time_in_mode=safety.time_in_mode() if safety else None,
        final_mode=safety.final_mode if safety else "")


def _guarded(controller: Controller, simulator: Simulator, guard: bool,
             supervisor_config) -> Controller:
    """Wrap one prepared controller for a guarded run (fresh supervisor per
    run, so journals never leak between grid cells).  The simulator's
    telemetry (if any) is shared, so guard interventions land in the same
    event stream as the episodes they happened in."""
    if not guard:
        return controller
    from repro.safety import SafetySupervisor
    return SafetySupervisor(controller, simulator.solver,
                            config=supervisor_config,
                            telemetry=simulator.telemetry)


def _healthy_run(simulator: Simulator, name: str, controller: Controller,
                 cycle: DriveCycle, initial_soc: float,
                 soc_min: float, soc_max: float, guard: bool = False,
                 supervisor_config=None) -> RobustnessRow:
    """Fault-free reference drive of one controller → its healthy row."""
    driver = _guarded(controller, simulator, guard, supervisor_config)
    healthy = simulator.run_episode(driver, cycle,
                                    initial_soc=initial_soc,
                                    learn=False, greedy=True)
    return _row(name, _HEALTHY, healthy, healthy.corrected_mpg(),
                soc_min, soc_max, activations=0)


def _faulted_run(simulator: Simulator, name: str, controller: Controller,
                 scenario_name: str, scenario: Scenario, cycle: DriveCycle,
                 initial_soc: float, seed: int, healthy_mpg: float,
                 soc_min: float, soc_max: float, guard: bool = False,
                 supervisor_config=None) -> RobustnessRow:
    """One degraded-mode drive → its scored row."""
    harness = FaultHarness(simulator.solver, scenario.schedule, seed=seed)
    driver = _guarded(controller, simulator, guard, supervisor_config)
    result = simulator.run_episode(driver, cycle,
                                   initial_soc=initial_soc,
                                   learn=False, greedy=True,
                                   faults=harness)
    return _row(name, scenario_name, result, healthy_mpg,
                soc_min, soc_max, activations=harness.activations)


def _task_spec(kind: str, name: str, scenario: str, cycle: DriveCycle,
               initial_soc: float, seed: int, guard: bool) -> dict:
    spec = {"kind": kind, "controller": name, "scenario": scenario,
            "cycle": cycle.name, "initial_soc": float(initial_soc),
            "seed": int(seed)}
    if guard:
        # Only present on guarded sweeps so pre-guard manifests keep their
        # content hashes (an unguarded resume must still hit its cache).
        spec["guard"] = True
    return spec


def run_robustness(simulator: Simulator,
                   controllers: Mapping[str, Controller],
                   scenarios: Mapping[str, Scenario],
                   cycle: DriveCycle, initial_soc: float = 0.60,
                   seed: int = 0,
                   executor: Optional[Supervisor] = None,
                   guard: bool = False,
                   supervisor_config=None) -> RobustnessReport:
    """Evaluate every controller under every fault scenario.

    ``controllers`` maps names to *prepared* controllers bound to the
    simulator's solver (train learning controllers beforehand — on the
    healthy vehicle).  Each controller first drives the cycle fault-free
    for its reference figures, then once per scenario; ``seed`` fixes the
    fault realisation (sensor noise, dropouts) across controllers so the
    comparison is paired.

    ``executor`` selects the execution strategy (see :mod:`repro.exec`).
    ``None`` keeps the historical serial in-process loop, failures
    raising.  A quarantine-mode :class:`~repro.exec.Supervisor` runs the
    grid fault-tolerantly (optionally in parallel workers): the healthy
    references run first, then every (controller, scenario) cell;
    quarantined cells — and cells skipped because their healthy reference
    was lost — are reported in :attr:`RobustnessReport.failures`.

    ``guard=True`` drives every run through a fresh
    :class:`repro.safety.SafetySupervisor` (thresholds from
    ``supervisor_config``): rows then carry intervention counts, time in
    each health mode, and the final mode, and
    :meth:`RobustnessReport.limp_home_retention` becomes meaningful.  A
    run the supervisor halts raises
    :class:`~repro.errors.SafetyHaltError` — structured, so a
    quarantine-mode executor records it as a failure instead of dying.
    """
    if not controllers:
        raise ConfigurationError("need at least one controller")
    if not scenarios:
        raise ConfigurationError("need at least one fault scenario")
    if executor is None:
        executor = Supervisor(failure_mode="raise")
    battery = simulator.solver.params.battery
    soc_min, soc_max = battery.soc_min, battery.soc_max

    healthy_tasks = [
        Task(key=f"{name}/{_HEALTHY}",
             spec=_task_spec("robustness-healthy", name, _HEALTHY, cycle,
                             initial_soc, seed, guard),
             fn=lambda name=name, controller=controller: _healthy_run(
                 simulator, name, controller, cycle, initial_soc,
                 soc_min, soc_max, guard, supervisor_config))
        for name, controller in controllers.items()]
    healthy_sweep = executor.run(healthy_tasks)

    report = RobustnessReport(
        planned=len(controllers) * (len(scenarios) + 1),
        failures=list(healthy_sweep.failures))
    faulted_tasks = []
    for name, controller in controllers.items():
        healthy_row = healthy_sweep.results.get(f"{name}/{_HEALTHY}")
        if healthy_row is None:
            # The reference drive was quarantined: retention is undefined
            # for this controller, so its grid cells are skipped — and
            # said so, instead of silently shrinking the table.
            report.failures.extend(
                TaskFailure(key=f"{name}/{scenario_name}", kind="skipped",
                            exception_type="", traceback="", attempts=0,
                            elapsed=0.0,
                            message="healthy reference was quarantined")
                for scenario_name in scenarios)
            continue
        healthy_mpg = healthy_row.corrected_mpg
        for scenario_name, scenario in scenarios.items():
            faulted_tasks.append(Task(
                key=f"{name}/{scenario_name}",
                spec=_task_spec("robustness", name, scenario_name, cycle,
                                initial_soc, seed, guard),
                fn=lambda name=name, controller=controller,
                scenario_name=scenario_name, scenario=scenario,
                healthy_mpg=healthy_mpg: _faulted_run(
                    simulator, name, controller, scenario_name, scenario,
                    cycle, initial_soc, seed, healthy_mpg,
                    soc_min, soc_max, guard, supervisor_config)))
    faulted_sweep = executor.run(faulted_tasks)
    report.failures.extend(faulted_sweep.failures)

    for name in controllers:
        healthy_row = healthy_sweep.results.get(f"{name}/{_HEALTHY}")
        if healthy_row is None:
            continue
        report.rows.append(healthy_row)
        for scenario_name in scenarios:
            row = faulted_sweep.results.get(f"{name}/{scenario_name}")
            if row is not None:
                report.rows.append(row)
    return report
