"""Performance gates: what must not regress on any machine.

Performance is measured by ``perfbench/run.py``.  Here: (a) committed
``BENCH_*.json`` files keep the :func:`benchmarks.common.emit_json`
schema; (b) three perfbench iterations per workload pass every check,
with every entry point in ``perfbench/layers.py`` resolved; (c) the
vectorised kernel and (d) batched ``decide`` keep their speedups, ratios
of two timings on one machine.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.control.rl_controller import build_rl_controller
from repro.cycles import standard_cycle
from repro.powertrain import PowertrainSolver
from repro.serve import PolicyRegistry, PolicyServer
from repro.sim import Simulator, train
from repro.vehicle import default_vehicle
from tests.reference_solver import ScalarReferenceSolver

ROOT = Path(__file__).resolve().parent.parent
SEED = 42

VECTORIZED_SPEEDUP_FLOOR = 185.49
"""0.8 x 231.862, the ``vectorized_speedup`` committed at rev 6f25767."""

BATCHED_DECISION_SPEEDUP_FLOOR = 189.89
"""0.8 x 237.357, the ``batched_decision_speedup`` committed at rev 5b36a85."""


def schema_problems(path: Path) -> list:
    """Schema problems of one bench JSON file (empty when valid)."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable ({exc})"]
    if not isinstance(payload, dict):
        return ["top level must be a JSON object"]
    problems = [f"field {key!r} missing or not {kind.__name__}"
                for key, kind in (("benchmark", str), ("schema_version", int),
                                  ("git_rev", str), ("timestamp", str),
                                  ("metrics", list))
                if not isinstance(payload.get(key), kind)]
    metrics = payload.get("metrics")
    if metrics == []:
        problems.append("metrics list is empty")
    for i, entry in enumerate(metrics if isinstance(metrics, list) else []):
        entry = entry if isinstance(entry, dict) else {}
        name, value = entry.get("name"), entry.get("value")
        if not (name and isinstance(name, str)
                and isinstance(entry.get("units"), str)
                and type(value) in (int, float) and math.isfinite(value)):
            problems.append(f"metrics[{i}] is not a finite named metric "
                            "with units")
    return problems


def test_bench_files_schema():
    paths = sorted(ROOT.glob("BENCH_*.json")) + sorted(
        (ROOT / "benchmarks" / "results").glob("BENCH_*.json"))
    problems = {str(path): schema_problems(path) for path in paths}
    assert paths and not any(problems.values()), problems


@pytest.mark.parametrize("workload", ["train", "learn"])
def test_perfbench_loop_is_correct(workload):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
    assert report["attempted"] == 3 * 6  # three iterations of six stages


def _steps_per_s(solver_cls, cycle) -> float:
    solver = solver_cls(default_vehicle())
    controller = build_rl_controller(solver, variant="proposed", seed=SEED)
    start = time.perf_counter()
    train(Simulator(solver), controller, cycle, episodes=1,
          evaluate_after=False, seed=SEED)
    return (len(cycle) - 1) / (time.perf_counter() - start)


def test_vectorized_kernel_speedup():
    # One NYCC episode against the scalar reference on a 40-step moving
    # window (idle steps take the cheap standstill path).
    cycle = standard_cycle("nycc")
    start = int(np.nonzero(cycle.speeds > 1.0)[0][0])
    speedup = (_steps_per_s(PowertrainSolver, cycle) / _steps_per_s(
        ScalarReferenceSolver, cycle.slice(start, start + 41)))
    assert speedup >= VECTORIZED_SPEEDUP_FLOOR, speedup


def _best_rate(call, items: int, rounds: int = 5) -> float:
    """Items per second of ``call``, best of ``rounds`` timings."""
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return items / best


def test_batched_decision_speedup(tmp_path):
    agent = build_rl_controller(PowertrainSolver(default_vehicle()),
                                seed=SEED).agent
    agent.learner.qtable.values[:] = np.random.default_rng(SEED).normal(
        size=agent.learner.qtable.values.shape)
    registry = PolicyRegistry(tmp_path)
    server = PolicyServer(registry)
    server.activate(registry.load(registry.publish(agent)))
    states = np.random.default_rng(SEED).integers(
        0, server.active_artifact.num_states, size=4096)
    server.decide(states)  # warm the decision memo for both paths
    batched = _best_rate(
        lambda: [server.decide(states) for _ in range(20)], 20 * 4096)
    scalar = _best_rate(
        lambda: [server.decide(state) for state in states[:256]], 256)
    assert batched / scalar >= BATCHED_DECISION_SPEEDUP_FLOOR, \
        batched / scalar
