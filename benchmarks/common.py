"""Shared infrastructure for the reproduction benches.

Every bench builds its controllers and cycles through these helpers so that

* the vehicle, reward weights, and training budget are identical across
  benches (apples-to-apples with the paper's single experimental setup),
* expensive training runs are cached per (cycle, variant, episodes, seed)
  and shared between benches in one pytest session (Table 2 and Fig. 3 are
  two views of the same four runs, exactly as in the paper), and
* the training budget can be scaled with ``REPRO_BENCH_EPISODES`` (default
  60) — smaller for smoke runs, larger for tighter convergence,
* every controller is scored by *stationary* evaluation
  (:func:`repro.sim.evaluate_stationary`): a settling pass first, then the
  reported drive starts at the controller's own settled state of charge, so
  cumulative rewards are charge-fair.

Evaluation cycles are driven twice back to back (``repeat(2)``): the first
pass absorbs the battery's state-of-charge transient so cumulative rewards
are dominated by charge-sustaining behaviour, and the resulting magnitudes
land in the range of the paper's Table 2.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.control import RuleBasedController, ECMSController
from repro.control.rl_controller import build_rl_controller
from repro.cycles import DriveCycle, standard_cycle
from repro.powertrain import PowertrainSolver
from repro.sim import EpisodeResult, Simulator, evaluate_stationary, train
from repro.vehicle import default_vehicle

SEED = 42
"""Seed shared by every bench."""

REPORTS = []
"""Rendered result tables collected for the terminal summary."""

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def report(name: str, text: str,
           metrics: Optional[Sequence[dict]] = None) -> None:
    """Register a rendered result table.

    The table is printed immediately (visible with ``pytest -s``), queued
    for the end-of-session summary (visible regardless of capture), and
    written to ``benchmarks/results/<name>.txt`` for later inspection.

    ``metrics`` — an optional sequence of ``{"name", "value", "units"}``
    dicts — additionally persists a machine-readable
    ``benchmarks/results/BENCH_<name>.json`` through :func:`emit_json`,
    so the bench's figures of merit enter the perf/accuracy trajectory
    without scraping the rendered table.
    """
    print("\n" + text)
    REPORTS.append(text)
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    with open(os.path.join(_RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text + "\n")
    if metrics is not None:
        emit_json(name, metrics)


def git_rev() -> str:
    """Short git revision of the working tree, or ``"unknown"``.

    Benches must run from exported tarballs too, so a missing ``git``
    (or a non-repo checkout) degrades to a placeholder instead of failing.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def metric(name: str, value: float, units: str) -> dict:
    """One schema-conforming metric record for :func:`emit_json`."""
    return {"name": str(name), "value": float(value), "units": str(units)}


def emit_json(name: str, metrics: Sequence[dict],
              path: Optional[str] = None) -> str:
    """Write the shared machine-readable bench result file.

    Schema (validated by ``tests/test_bench_gates.py``): a JSON object
    with ``benchmark`` (str), ``schema_version`` (int), ``git_rev`` (str),
    ``timestamp`` (ISO-8601 UTC str), and ``metrics`` — a non-empty list
    of ``{"name": str, "value": float, "units": str}``.  Returns the path
    written (default ``benchmarks/results/BENCH_<name>.json``).
    """
    records = []
    for m in metrics:
        records.append(metric(m["name"], m["value"], m["units"]))
    if not records:
        raise ValueError(f"bench {name!r} emitted no metrics")
    payload = {
        "benchmark": str(name),
        "schema_version": 1,
        "git_rev": git_rev(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metrics": records,
    }
    if path is None:
        os.makedirs(_RESULTS_DIR, exist_ok=True)
        path = os.path.join(_RESULTS_DIR, f"BENCH_{name}.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path

CYCLE_REPEATS = 2
"""Back-to-back repetitions of each evaluation cycle."""


def bench_episodes(default: int = 60) -> int:
    """Training budget per run, overridable via ``REPRO_BENCH_EPISODES``."""
    return int(os.environ.get("REPRO_BENCH_EPISODES", default))


def ablation_episodes(default: int) -> int:
    """Training budget for ablation benches: their own (small) default,
    shrunk further when ``REPRO_BENCH_EPISODES`` asks for a quicker pass."""
    return min(bench_episodes(default), default)


def bench_cycle(name: str) -> DriveCycle:
    """The doubled standard cycle used by every bench."""
    return standard_cycle(name).repeat(CYCLE_REPEATS)


_CACHE: Dict[Tuple, EpisodeResult] = {}


def trained_rl_result(cycle_name: str, variant: str = "proposed",
                      episodes: Optional[int] = None,
                      seed: int = SEED) -> EpisodeResult:
    """Greedy evaluation of an RL variant trained on a cycle (cached)."""
    episodes = bench_episodes() if episodes is None else episodes
    key = ("rl", cycle_name, variant, episodes, seed)
    if key not in _CACHE:
        solver = PowertrainSolver(default_vehicle())
        simulator = Simulator(solver)
        controller = build_rl_controller(solver, variant=variant, seed=seed)
        cycle = bench_cycle(cycle_name)
        train(simulator, controller, cycle, episodes=episodes,
              evaluate_after=False)
        _CACHE[key] = evaluate_stationary(simulator, controller, cycle,
                                          settle_passes=2)
    return _CACHE[key]


def rule_based_result(cycle_name: str) -> EpisodeResult:
    """Rule-based baseline evaluation on a cycle (cached)."""
    key = ("rule", cycle_name)
    if key not in _CACHE:
        solver = PowertrainSolver(default_vehicle())
        _CACHE[key] = evaluate_stationary(Simulator(solver),
                                          RuleBasedController(solver),
                                          bench_cycle(cycle_name),
                                          settle_passes=2)
    return _CACHE[key]


def ecms_result(cycle_name: str) -> EpisodeResult:
    """ECMS baseline evaluation on a cycle (cached)."""
    key = ("ecms", cycle_name)
    if key not in _CACHE:
        solver = PowertrainSolver(default_vehicle())
        _CACHE[key] = evaluate_stationary(Simulator(solver),
                                          ECMSController(solver),
                                          bench_cycle(cycle_name),
                                          settle_passes=2)
    return _CACHE[key]
