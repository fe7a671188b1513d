"""Command-line interface.

Eleven subcommands cover the everyday workflows:

* ``cycles``   — list the built-in drive cycles with their statistics, or
  export one to CSV.
* ``train``    — train the joint RL controller on a cycle and optionally
  save the learned policy.
* ``evaluate`` — drive a cycle under a chosen controller (optionally a
  saved policy, optionally with an injected fault scenario, optionally
  behind the runtime safety supervisor via ``--guard``) and print the
  result summary plus energy accounting.
* ``compare``  — train the RL controller and print the proposed-vs-baseline
  table for one cycle.
* ``faults``   — list the built-in fault scenarios for degraded-mode runs.
* ``sweep``    — run the controllers × fault-scenarios robustness grid
  through the supervised executor: ``--jobs`` isolated workers,
  per-task ``--timeout``, bounded ``--retries``, journaling to an
  append-only ``--manifest``, ``--resume`` to skip finished work
  after a kill, and ``--guard`` to drive every run behind the safety
  supervisor (adds intervention/mode columns).
* ``guard-report`` — drive one guarded episode and print the supervisor's
  full journal: guard events, mode transitions, and time in each mode.
* ``telemetry`` — ``telemetry report PATH`` summarises a telemetry event
  file (or a sweep manifest's task latency) written by a previous run.
* ``chaos``    — run a deterministic infrastructure-fault campaign
  against the repo's own executor/manifest/persistence/telemetry layers
  and report detection and recovery rates (see ``docs/ROBUSTNESS.md``).
  Exits 1 if any documented recovery invariant broke.
* ``serve``    — publish a policy to a versioned registry (training a
  quick one if the registry is empty) and drive a heterogeneous vehicle
  fleet against the policy server: optional ``--swap`` hot-swap,
  ``--canary`` rollout with automatic rollback, and ``--shards``
  fork-isolated scale-out (see ``docs/SERVING.md``).
* ``learn``    — run the resilient online-learning loop: the fleet
  streams experience into crash-safe journals, the central learner
  ingests them with exact-resume cursors (``--resume`` after a kill is
  bit-identical), and every ``--promote-every`` rounds the updated
  policy goes through the guarded canary/watchdog promotion path with
  measured regression recovery (see ``docs/ONLINE_LEARNING.md``).

Invoke as ``python -m repro <subcommand> ...``.  Structured library errors
(:class:`repro.errors.ReproError`) — including executor and manifest
misconfiguration — are reported as a one-line message on stderr with exit
code 2 instead of a traceback.

Result tables go to **stdout**; progress/diagnostic chatter goes through
stdlib :mod:`logging` on **stderr**, controlled by the global
``--log-level`` / ``-v`` flags (default INFO) — so piping a command into
a file captures clean results.  ``train``/``evaluate``/``guard-report``/
``sweep`` accept ``--telemetry PATH`` to stream structured events,
spans, and metrics into a JSONL file (see ``docs/OBSERVABILITY.md``);
WARNING+ log records are bridged into the same file.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro.analysis.ascii_plot import soc_strip, sparkline
from repro.analysis.traces import energy_account, mode_share
from repro.control import (
    ConventionalController,
    ECMSController,
    RuleBasedController,
    ThermostatController,
)
from repro.control.rl_controller import build_rl_controller
from repro.cycles import STANDARD_SPECS, compute_stats, save_csv, standard_cycle
from repro.errors import ConfigurationError, ReproError, SafetyHaltError
from repro.exec import Supervisor, SweepManifest
from repro.faults import FaultHarness, builtin_scenarios, get_scenario
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import load_policy, save_policy
from repro.sim import Simulator, evaluate, evaluate_stationary, run_robustness, train
from repro.sim.callbacks import ProgressPrinter, train_with_callbacks
from repro.vehicle import default_vehicle

_BASELINES = {
    "rule-based": RuleBasedController,
    "ecms": ECMSController,
    "thermostat": ThermostatController,
    "conventional": ConventionalController,
}

_LOG = logging.getLogger(__name__)


def _configure_logging(args) -> None:
    """Point the ``repro`` package logger at stderr at the chosen level.

    Idempotent across repeated :func:`main` calls in one process (the
    test suite drives the CLI in-process): the handler is installed once
    and only the level is updated.  The logger does not propagate, so an
    application embedding the library keeps full control of the root.
    """
    level_name = "debug" if args.verbose else args.log_level
    logger = logging.getLogger("repro")
    logger.setLevel(getattr(logging, level_name.upper()))
    logger.propagate = False
    if not any(getattr(h, "_repro_cli", False) for h in logger.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        handler._repro_cli = True
        logger.addHandler(handler)


@contextmanager
def _telemetry_session(path):
    """One command's telemetry sink (yields None when ``path`` is None).

    While open, WARNING+ records of the ``repro`` logger are bridged into
    the event file; the bridge is detached before the sink closes, so a
    late log record can never hit a closed file.
    """
    if path is None:
        yield None
        return
    from repro.telemetry import (Telemetry, attach_logging_bridge,
                                 detach_logging_bridge)
    telemetry = Telemetry(path)
    logger = logging.getLogger("repro")
    handler = attach_logging_bridge(telemetry, logger)
    try:
        yield telemetry
    finally:
        detach_logging_bridge(handler, logger)
        telemetry.close()
        _LOG.info("telemetry written to %s (run %s)", telemetry.path,
                  telemetry.run_id)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HEV joint RL control (DAC'15 reproduction)")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"],
                        help="diagnostic verbosity on stderr "
                             "(default: info; result tables always print "
                             "on stdout)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="shorthand for --log-level debug")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cycles = sub.add_parser("cycles", help="list or export drive cycles")
    p_cycles.add_argument("--export", metavar="NAME",
                          help="cycle to export as CSV")
    p_cycles.add_argument("--output", default=None,
                          help="CSV path (default <name>.csv)")

    p_train = sub.add_parser("train", help="train the RL controller")
    p_train.add_argument("--cycle", default="UDDS")
    p_train.add_argument("--episodes", type=int, default=50)
    p_train.add_argument("--repeats", type=int, default=2,
                         help="cycle repetitions per episode")
    p_train.add_argument("--variant", default="proposed",
                         choices=["proposed", "no_prediction", "baseline13"])
    p_train.add_argument("--seed", type=int, default=42)
    p_train.add_argument("--save", metavar="STEM",
                         help="save the trained policy to STEM.rpa")
    p_train.add_argument("--telemetry", metavar="PATH",
                         help="stream structured events/spans/metrics to "
                              "this JSONL file (must not already exist)")

    p_eval = sub.add_parser("evaluate", help="evaluate a controller")
    p_eval.add_argument("--cycle", default="UDDS")
    p_eval.add_argument("--repeats", type=int, default=2)
    p_eval.add_argument("--controller", default="rule-based",
                        choices=sorted(_BASELINES) + ["rl"])
    p_eval.add_argument("--policy", metavar="STEM",
                        help="saved policy stem (for --controller rl)")
    p_eval.add_argument("--seed", type=int, default=42)
    p_eval.add_argument("--faults", metavar="SCENARIO",
                        help="drive in degraded mode: a built-in fault "
                             "scenario name (see 'repro faults list') or a "
                             "scenario JSON path")
    p_eval.add_argument("--guard", action="store_true",
                        help="wrap the controller in the runtime safety "
                             "supervisor (envelope guarding + graceful "
                             "degradation to the rule-based fallback)")
    p_eval.add_argument("--telemetry", metavar="PATH",
                        help="stream structured events/spans/metrics to "
                             "this JSONL file (must not already exist)")

    p_guard = sub.add_parser(
        "guard-report",
        help="drive one guarded episode and print the safety journal")
    p_guard.add_argument("--cycle", default="UDDS")
    p_guard.add_argument("--repeats", type=int, default=1)
    p_guard.add_argument("--controller", default="rl",
                         choices=sorted(_BASELINES) + ["rl"])
    p_guard.add_argument("--policy", metavar="STEM",
                         help="saved policy stem (for --controller rl)")
    p_guard.add_argument("--seed", type=int, default=42)
    p_guard.add_argument("--faults", metavar="SCENARIO",
                         help="inject a fault scenario (name or JSON path)")
    p_guard.add_argument("--telemetry", metavar="PATH",
                         help="stream structured events/spans/metrics to "
                              "this JSONL file (must not already exist)")

    p_faults = sub.add_parser("faults", help="fault-injection scenarios")
    p_faults.add_argument("action", choices=["list"],
                          help="'list' prints the built-in scenarios")

    p_cmp = sub.add_parser("compare",
                           help="train RL and compare against baselines")
    p_cmp.add_argument("--cycle", default="SC03")
    p_cmp.add_argument("--episodes", type=int, default=50)
    p_cmp.add_argument("--repeats", type=int, default=2)
    p_cmp.add_argument("--seed", type=int, default=42)

    p_sweep = sub.add_parser(
        "sweep", help="supervised controllers x scenarios robustness sweep")
    p_sweep.add_argument("--cycle", default="NYCC")
    p_sweep.add_argument("--repeats", type=int, default=1)
    p_sweep.add_argument("--controllers", default="rule-based,ecms",
                         help="comma-separated baseline names "
                              f"({', '.join(sorted(_BASELINES))})")
    p_sweep.add_argument("--scenarios", default="all",
                         help="'all' or comma-separated scenario names / "
                              "scenario JSON paths")
    p_sweep.add_argument("--seed", type=int, default=42)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="isolated worker processes (1 = serial "
                              "in-process)")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         help="per-run wall-clock limit in seconds "
                              "(hung runs are killed and quarantined)")
    p_sweep.add_argument("--retries", type=int, default=0,
                         help="retry budget per run (exponential backoff)")
    p_sweep.add_argument("--manifest", metavar="PATH",
                         help="journal completed runs to this JSONL sweep "
                              "manifest (must not already exist)")
    p_sweep.add_argument("--resume", metavar="PATH",
                         help="resume from an existing sweep manifest: "
                              "finished runs are skipped and new "
                              "completions are appended to the same file")
    p_sweep.add_argument("--guard", action="store_true",
                         help="drive every run behind the runtime safety "
                              "supervisor; rows gain intervention and "
                              "health-mode columns")
    p_sweep.add_argument("--telemetry", metavar="PATH",
                         help="stream structured events/spans/metrics to "
                              "this JSONL file (must not already exist)")

    p_tel = sub.add_parser(
        "telemetry", help="summarise telemetry event files and manifests")
    p_tel.add_argument("action", choices=["report"],
                       help="'report' aggregates one file into a summary")
    p_tel.add_argument("path",
                       help="a telemetry event file written with "
                            "--telemetry, or a sweep manifest")

    p_chaos = sub.add_parser(
        "chaos", help="deterministic infrastructure-fault campaign")
    p_chaos.add_argument("--seeds", type=int, default=20,
                         help="campaign seeds to run (fault parameters "
                              "and order vary per seed; default 20)")
    p_chaos.add_argument("--kinds", default=None,
                         help="comma-separated fault kinds (default: all; "
                              "see repro.chaos.FAULT_KINDS)")
    p_chaos.add_argument("--report", metavar="PATH",
                         help="also write the full campaign report as "
                              "JSON to this path")
    p_chaos.add_argument("--workdir", metavar="DIR",
                         help="run experiments under this directory and "
                              "keep the artifacts (default: a temporary "
                              "directory, removed afterwards)")

    p_serve = sub.add_parser(
        "serve", help="drive a vehicle fleet against the policy server")
    p_serve.add_argument("--registry", required=True, metavar="DIR",
                         help="policy-registry directory (created, and "
                              "seeded with a quickly trained policy, when "
                              "empty)")
    p_serve.add_argument("--cycle", default="NYCC",
                         help="training cycle when seeding an empty "
                              "registry (default NYCC)")
    p_serve.add_argument("--train-episodes", type=int, default=5,
                         help="training budget when seeding an empty "
                              "registry (default 5)")
    p_serve.add_argument("--vehicles", type=int, default=2048,
                         help="fleet population size (default 2048)")
    p_serve.add_argument("--steps", type=int, default=60,
                         help="simulated seconds per vehicle (default 60)")
    p_serve.add_argument("--seed", type=int, default=42)
    p_serve.add_argument("--swap", type=int, metavar="VERSION",
                         help="hot-swap to this registry version before "
                              "the fleet run (refused cleanly on any "
                              "defect; the incumbent keeps serving)")
    p_serve.add_argument("--canary", type=int, metavar="VERSION",
                         help="run this version as a canary rollout; a "
                              "regressed candidate is rolled back "
                              "automatically during the fleet run")
    p_serve.add_argument("--canary-fraction", type=float, default=0.1,
                         help="fleet fraction routed to the canary "
                              "(default 0.1)")
    p_serve.add_argument("--shards", type=int, default=1,
                         help="split the fleet across this many "
                              "fork-isolated workers (each with its own "
                              "server over the shared registry)")
    p_serve.add_argument("--jobs", type=int, default=None,
                         help="worker processes for --shards (default: "
                              "one per shard, capped by the executor)")
    p_serve.add_argument("--telemetry", metavar="PATH",
                         help="stream structured events/spans/metrics to "
                              "this JSONL file (must not already exist)")

    p_learn = sub.add_parser(
        "learn", help="run the resilient online-learning loop: fleet -> "
                      "experience journals -> learner -> guarded promotion")
    p_learn.add_argument("--registry", required=True, metavar="DIR",
                         help="policy-registry directory (created, and "
                              "seeded with a quickly trained policy, when "
                              "empty)")
    p_learn.add_argument("--workdir", required=True, metavar="DIR",
                         help="loop working directory holding the "
                              "experience journals and the learner's "
                              "crash-safe checkpoint")
    p_learn.add_argument("--rounds", type=int, default=6,
                         help="fleet/ingest/promote rounds to run "
                              "(default 6)")
    p_learn.add_argument("--steps", type=int, default=30,
                         help="simulated seconds per vehicle per round "
                              "(default 30)")
    p_learn.add_argument("--vehicles", type=int, default=512,
                         help="fleet population size (default 512)")
    p_learn.add_argument("--promote-every", type=int, default=2,
                         help="attempt a guarded promotion every this "
                              "many rounds (default 2)")
    p_learn.add_argument("--resume", action="store_true",
                         help="resume the learner from its checkpoint in "
                              "--workdir (bit-identical to never having "
                              "been killed)")
    p_learn.add_argument("--seed", type=int, default=42)
    p_learn.add_argument("--cycle", default="NYCC",
                         help="training cycle when seeding an empty "
                              "registry (default NYCC)")
    p_learn.add_argument("--train-episodes", type=int, default=5,
                         help="training budget when seeding an empty "
                              "registry (default 5)")
    p_learn.add_argument("--telemetry", metavar="PATH",
                         help="stream structured events/spans/metrics to "
                              "this JSONL file (must not already exist)")
    return parser


def _cmd_cycles(args) -> int:
    if args.export:
        cycle = standard_cycle(args.export)
        path = args.output or f"{cycle.name.lower()}.csv"
        save_csv(cycle, path)
        print(f"wrote {cycle} to {path}")
        return 0
    print(f"{'name':8s} {'dur s':>7s} {'km':>7s} {'mean km/h':>10s} "
          f"{'max km/h':>9s} {'stops':>6s}")
    for name in sorted(STANDARD_SPECS):
        stats = compute_stats(standard_cycle(name))
        print(f"{name:8s} {stats.duration:7.0f} "
              f"{stats.distance / 1000:7.2f} {stats.mean_speed_kmh:10.1f} "
              f"{stats.max_speed_kmh:9.1f} {stats.stop_count:6d}")
    return 0


def _cmd_train(args) -> int:
    solver = PowertrainSolver(default_vehicle())
    controller = build_rl_controller(solver, variant=args.variant,
                                     seed=args.seed)
    cycle = standard_cycle(args.cycle).repeat(args.repeats)
    with _telemetry_session(args.telemetry) as telemetry:
        simulator = Simulator(solver, telemetry=telemetry)
        _LOG.info("training %s on %s for %d episodes", args.variant, cycle,
                  args.episodes)
        run = train_with_callbacks(simulator, controller, cycle,
                                   episodes=args.episodes,
                                   callbacks=[ProgressPrinter(every=10)])
    if len(run.episodes) >= 2:
        print("learning curve (reward/episode): "
              + sparkline(run.learning_curve))
    print("greedy evaluation:", run.evaluation.summary())
    if args.save:
        save_policy(controller.agent, args.save)
        _LOG.info("policy saved to %s.rpa", args.save)
    return 0


def _build_eval_controller(solver, args):
    """The ``evaluate``/``guard-report`` controller from shared flags."""
    if args.controller == "rl":
        controller = build_rl_controller(solver, seed=args.seed)
        if args.policy:
            load_policy(controller.agent, args.policy)
        return controller
    return _BASELINES[args.controller](solver)


def _print_guard_summary(report) -> None:
    """Condensed supervisor summary after a guarded evaluation."""
    in_mode = ", ".join(f"{name}={steps}"
                        for name, steps in report.time_in_mode().items()
                        if steps)
    print(f"  guard: {report.interventions} intervention(s) "
          f"({report.intervention_rate:.1%}), "
          f"{len(report.transitions)} transition(s), "
          f"final mode {report.final_mode} [{in_mode}]")


def _cmd_evaluate(args) -> int:
    solver = PowertrainSolver(default_vehicle())
    cycle = standard_cycle(args.cycle).repeat(args.repeats)
    with _telemetry_session(args.telemetry) as telemetry:
        simulator = Simulator(solver, telemetry=telemetry)
        controller = _build_eval_controller(solver, args)
        if args.guard:
            from repro.safety import SafetySupervisor
            controller = SafetySupervisor(controller, solver,
                                          telemetry=telemetry)
        harness = None
        if args.faults is not None:
            scenario = get_scenario(args.faults)
            harness = FaultHarness(solver, scenario.schedule, seed=args.seed)
            _LOG.info("injecting fault scenario '%s': %s", scenario.name,
                      scenario.description)
        result = evaluate(simulator, controller, cycle, faults=harness)
    print(result.summary())
    if result.safety is not None:
        _print_guard_summary(result.safety)
    if harness is not None:
        battery = solver.params.battery
        print(f"  degraded mode: {result.faulted_steps} faulted steps, "
              f"{harness.activations} activation(s), "
              f"{result.window_violation_steps(battery.soc_min, battery.soc_max)}"
              " SoC-window violations")
    battery = solver.params.battery
    print("  " + soc_strip(result.soc, battery.soc_min, battery.soc_max))
    account = energy_account(result)
    print(f"  wheel work    {account.positive_wheel_work / 1e6:7.2f} MJ")
    print(f"  fuel energy   {account.fuel_energy / 1e6:7.2f} MJ")
    print(f"  regen share   {account.regen_fraction:7.1%}")
    print("  mode share    " + ", ".join(
        f"{name}={frac:.0%}" for name, frac in sorted(
            mode_share(result).items())))
    return 0


def _cmd_guard_report(args) -> int:
    solver = PowertrainSolver(default_vehicle())
    cycle = standard_cycle(args.cycle).repeat(args.repeats)
    with _telemetry_session(args.telemetry) as telemetry:
        simulator = Simulator(solver, telemetry=telemetry)
        controller = _build_eval_controller(solver, args)
        from repro.safety import SafetySupervisor
        supervisor = SafetySupervisor(controller, solver,
                                      telemetry=telemetry)
        harness = None
        if args.faults is not None:
            scenario = get_scenario(args.faults)
            harness = FaultHarness(solver, scenario.schedule, seed=args.seed)
            _LOG.info("injecting fault scenario '%s': %s", scenario.name,
                      scenario.description)
        try:
            result = evaluate(simulator, controller=supervisor, cycle=cycle,
                              faults=harness)
        except SafetyHaltError as exc:
            # A halt is a legitimate guarded outcome: print the journal up
            # to the halt, then report the structured error.
            if exc.report is not None:
                print(exc.report.render())
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(result.summary())
    print(result.safety.render())
    return 0


def _cmd_compare(args) -> int:
    solver = PowertrainSolver(default_vehicle())
    simulator = Simulator(solver)
    cycle = standard_cycle(args.cycle).repeat(args.repeats)
    controller = build_rl_controller(solver, seed=args.seed)
    _LOG.info("training on %s (%d episodes)...", cycle, args.episodes)
    train(simulator, controller, cycle, episodes=args.episodes,
          evaluate_after=False)
    rows = {"rl (proposed)": evaluate_stationary(simulator, controller,
                                                 cycle)}
    for name, factory in sorted(_BASELINES.items()):
        rows[name] = evaluate_stationary(simulator, factory(solver), cycle)
    print(f"\n{'controller':14s} {'mpg':>7s} {'reward':>10s} {'final SoC':>10s}")
    for name, res in rows.items():
        print(f"{name:14s} {res.corrected_mpg():7.1f} "
              f"{res.total_paper_reward:10.2f} {res.final_soc:10.2f}")
    return 0


def _cmd_sweep(args) -> int:
    if args.manifest and args.resume:
        raise ConfigurationError(
            "--manifest and --resume are mutually exclusive; --resume "
            "appends to the manifest it resumes from")
    manifest = None
    if args.resume:
        manifest = SweepManifest(args.resume, resume=True)
    elif args.manifest:
        manifest = SweepManifest(args.manifest)

    names = [n.strip() for n in args.controllers.split(",") if n.strip()]
    if not names:
        raise ConfigurationError("need at least one controller")
    unknown = sorted(set(names) - set(_BASELINES))
    if unknown:
        raise ConfigurationError(
            f"unknown controller(s) {unknown}; "
            f"available: {sorted(_BASELINES)}")
    solver = PowertrainSolver(default_vehicle())
    controllers = {name: _BASELINES[name](solver) for name in names}

    if args.scenarios.strip() == "all":
        scenarios = builtin_scenarios()
    else:
        scenarios = {}
        for token in (t.strip() for t in args.scenarios.split(",")):
            if not token:
                continue
            scenario = get_scenario(token)
            scenarios[scenario.name] = scenario
    if not scenarios:
        raise ConfigurationError("need at least one fault scenario")

    cycle = standard_cycle(args.cycle).repeat(args.repeats)
    with _telemetry_session(args.telemetry) as telemetry:
        executor = Supervisor(jobs=args.jobs, timeout=args.timeout,
                              retries=args.retries, manifest=manifest,
                              failure_mode="quarantine",
                              telemetry=telemetry)
        simulator = Simulator(solver, telemetry=telemetry)
        mode = (f"{args.jobs} isolated worker(s)" if executor.isolated
                else "serial in-process")
        _LOG.info("sweeping %d controller(s) x %d scenario(s) on %s [%s]",
                  len(controllers), len(scenarios), cycle, mode)
        report = run_robustness(simulator, controllers, scenarios, cycle,
                                seed=args.seed, executor=executor,
                                guard=args.guard)
    print(report.render())
    if args.guard:
        try:
            print(f"\nlimp-home MPG retention (worst): "
                  f"{report.limp_home_retention():.2f}")
        except ConfigurationError:
            print("\nno run entered LIMP_HOME")
    if not report.failures:
        print(f"\ncoverage: {len(report.rows)}/{report.planned} runs, "
              "nothing quarantined")
    if not report.rows:
        raise ConfigurationError(
            "sweep produced no surviving runs "
            f"({len(report.failures)} quarantined)")
    return 0


def _cmd_telemetry(args) -> int:
    from repro.telemetry import summarize
    print(summarize(args.path))
    return 0


def _cmd_chaos(args) -> int:
    import json as json_module

    from repro.chaos import run_campaign
    kinds = None
    if args.kinds is not None:
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    report = run_campaign(seeds=args.seeds, kinds=kinds,
                          workdir=args.workdir, progress=_LOG.info)
    print(report.render())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json_module.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        _LOG.info("campaign report written to %s", args.report)
    # A broken invariant is a finding, not a crash: full report above,
    # non-zero exit so CI and scripts notice.
    return 0 if report.clean else 1


def _cmd_serve(args) -> int:
    from repro.serve import (
        CanaryConfig,
        FleetConfig,
        FleetSimulator,
        PolicyRegistry,
        PolicyServer,
        run_fleet_sharded,
    )

    registry = PolicyRegistry(args.registry)
    if not registry.versions():
        if args.train_episodes < 1:
            raise ConfigurationError(
                f"registry {args.registry} is empty and --train-episodes "
                "is 0; publish a policy first or allow seeding")
        solver = PowertrainSolver(default_vehicle())
        controller = build_rl_controller(solver, seed=args.seed)
        cycle = standard_cycle(args.cycle)
        _LOG.info("registry %s is empty; training %d episode(s) on %s",
                  args.registry, args.train_episodes, cycle)
        train(Simulator(solver), controller, cycle,
              episodes=args.train_episodes, evaluate_after=False)
        version = registry.publish(controller.agent)
        _LOG.info("published trained policy as v%d", version)

    config = FleetConfig(vehicles=args.vehicles, steps=args.steps,
                         seed=args.seed)
    if args.shards > 1:
        aggregate = run_fleet_sharded(registry.root, config,
                                      shards=args.shards, jobs=args.jobs)
        print(f"fleet: {aggregate['vehicles']} vehicles across "
              f"{aggregate['shards']} shard(s), "
              f"{aggregate['failures']} failure(s)")
        print(f"  decisions      {aggregate['decisions']:12d} "
              f"({aggregate['decisions_per_sec']:,.0f}/s)")
        print(f"  vehicles/min   {aggregate['vehicles_per_min']:12,.0f}")
        print(f"  shed requests  {aggregate['shed_requests']:12d}")
        print(f"  limp decisions {aggregate['limp_decisions']:12d}")
        print(f"  interventions  {aggregate['interventions']:12d}")
        print(f"  mean reward    {aggregate['mean_reward']:12.4f}")
        return 0

    with _telemetry_session(args.telemetry) as telemetry:
        server = PolicyServer(registry, telemetry=telemetry)
        active = server.activate_latest()
        if server.degraded:
            print("no loadable policy in the registry; serving the "
                  "rule-based fallback action "
                  f"({server.degraded_loads} corrupt version(s) skipped)")
        else:
            skipped = (f" ({server.degraded_loads} corrupt version(s) "
                       "skipped)" if server.degraded_loads else "")
            print(f"serving v{active}{skipped}")
        if args.swap is not None:
            rep = server.swap(version=args.swap)
            status = ("activated" if rep.activated
                      else f"refused: {rep.reason}")
            print(f"hot-swap v{rep.from_version} -> v{rep.to_version}: "
                  f"{status} [{rep.elapsed_s * 1e3:.1f} ms, probe "
                  f"disagreement {rep.probe_disagreement:.1%}]")
        if args.canary is not None:
            server.begin_canary(version=args.canary,
                                canary_config=CanaryConfig(
                                    fraction=args.canary_fraction))
            print(f"canary: v{args.canary} on "
                  f"{args.canary_fraction:.0%} of the fleet")
        result = FleetSimulator(server, config).run()
        print(f"fleet: {result.vehicles} vehicles x {result.steps} steps "
              f"in {result.elapsed_s:.2f}s")
        print(f"  decisions      {result.decisions:12d} "
              f"({result.decisions_per_sec:,.0f}/s)")
        print(f"  vehicles/min   {result.vehicles_per_min:12,.0f}")
        print(f"  shed requests  {result.shed_requests:12d}")
        print(f"  limp decisions {result.limp_decisions:12d}")
        print(f"  interventions  {result.interventions:12d}")
        print(f"  mean reward    {result.mean_reward:12.4f}")
        if result.canary_verdict is not None:
            print(f"  canary verdict: {result.canary_verdict}")
            if result.rollback is not None:
                print(f"    rolled back v{result.rollback['version']} "
                      f"after {result.rollback['decisions']} decision(s) "
                      f"({result.rollback['latency_s'] * 1e3:.1f} ms): "
                      f"{result.rollback['reason']}")
        elif args.canary is not None:
            rollout = server.canary
            print(f"  canary undecided after "
                  f"{rollout.canary_decisions} canary decision(s)")
    return 0


def _cmd_learn(args) -> int:
    from repro.learn import OnlineLearningLoop
    from repro.serve import FleetConfig, PolicyRegistry

    registry = PolicyRegistry(args.registry)
    if not registry.versions():
        if args.train_episodes < 1:
            raise ConfigurationError(
                f"registry {args.registry} is empty and --train-episodes "
                "is 0; publish a policy first or allow seeding")
        solver = PowertrainSolver(default_vehicle())
        controller = build_rl_controller(solver, seed=args.seed)
        cycle = standard_cycle(args.cycle)
        _LOG.info("registry %s is empty; training %d episode(s) on %s",
                  args.registry, args.train_episodes, cycle)
        train(Simulator(solver), controller, cycle,
              episodes=args.train_episodes, evaluate_after=False)
        version = registry.publish(controller.agent)
        _LOG.info("published trained policy as v%d", version)

    config = FleetConfig(vehicles=args.vehicles, steps=args.steps,
                         seed=args.seed)
    with _telemetry_session(args.telemetry) as telemetry:
        with OnlineLearningLoop(registry, args.workdir,
                                fleet_config=config,
                                promote_every=args.promote_every,
                                resume=args.resume,
                                telemetry=telemetry) as loop:
            print(f"online loop: v{loop.server.active_version} incumbent, "
                  f"{args.vehicles} vehicles x {args.steps} steps/round"
                  + (", resumed from checkpoint" if args.resume
                     and loop.learner.ingests else ""))
            report = loop.run(args.rounds)
            for rnd in report.rounds:
                line = (f"  round {rnd.round:2d}: {rnd.decisions} "
                        f"decisions, reward {rnd.mean_reward:8.4f}, "
                        f"{rnd.records_streamed} streamed / "
                        f"{rnd.records_ingested} ingested")
                if rnd.records_shed:
                    line += f", {rnd.records_shed} shed"
                if rnd.quarantined:
                    line += f", {rnd.quarantined} quarantined"
                if rnd.watchdog_alert:
                    line += f" [watchdog: {rnd.watchdog_alert}]"
                if rnd.promotion is not None:
                    line += (f" [v{rnd.promotion.candidate_version} "
                             f"{rnd.promotion.outcome}]")
                print(line)
            print(f"  promotions {report.promotions}, rollbacks "
                  f"{report.rollbacks}, serving v{report.final_version}")
            for latency in report.recovery_latencies_s:
                print(f"  regression recovered in {latency * 1e3:.1f} ms")
    return 0


def _cmd_faults(args) -> int:
    scenarios = builtin_scenarios()
    print(f"{'name':15s} {'faults':>6s}  description")
    for name in sorted(scenarios):
        scenario = scenarios[name]
        print(f"{name:15s} {len(scenario.schedule):6d}  "
              f"{scenario.description}")
        for entry in scenario.schedule:
            window = (f"t={entry.start:g}s"
                      + (f"-{entry.end:g}s" if entry.end is not None else "+")
                      + (f", ramp {entry.ramp:g}s" if entry.ramp else ""))
            print(f"{'':23s}- {entry.fault.describe()} ({window})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Structured library errors are reported as a single clean line on
    stderr (exit code 2); genuine bugs still traceback.
    """
    args = _build_parser().parse_args(argv)
    _configure_logging(args)
    handlers = {
        "cycles": _cmd_cycles,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "compare": _cmd_compare,
        "faults": _cmd_faults,
        "sweep": _cmd_sweep,
        "guard-report": _cmd_guard_report,
        "telemetry": _cmd_telemetry,
        "chaos": _cmd_chaos,
        "serve": _cmd_serve,
        "learn": _cmd_learn,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. ``python -m repro cycles | head``);
        # detach stdout so the interpreter's shutdown flush cannot re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
