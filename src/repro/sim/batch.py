"""Batch experiments: multi-seed, multi-cycle sweeps with summary statistics.

A single RL training run carries seed noise; the batch runner repeats an
experiment across seeds (and optionally cycles), aggregates the figures of
merit (mean, standard deviation, extremes), and reports them in one
structure.  The ablation benches and the examples use it to state results
with honest error bars instead of single draws.

Execution goes through the supervised executor (:mod:`repro.exec`): by
default every repetition runs serially in-process, bit-identical to a
plain loop, and any exception propagates as before.  Pass an explicit
:class:`~repro.exec.Supervisor` to fan repetitions out to isolated
worker processes with timeouts, retries, and quarantine — the batch then
completes on whatever survived and reports its coverage honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.control.base import Controller
from repro.cycles.cycle import DriveCycle
from repro.errors import ConfigurationError
from repro.exec import Supervisor, Task, TaskFailure
from repro.powertrain.solver import PowertrainSolver
from repro.sim.results import EpisodeResult
from repro.sim.simulator import Simulator
from repro.sim.training import evaluate, train


@dataclass(frozen=True)
class Summary:
    """Mean / spread of one scalar metric across repetitions."""

    mean: float
    """Sample mean."""

    std: float
    """Sample standard deviation (0 for a single repetition)."""

    minimum: float
    """Smallest observation."""

    maximum: float
    """Largest observation."""

    count: int
    """Number of repetitions."""

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        """Summarise a non-empty sequence of observations."""
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            raise ConfigurationError("cannot summarise zero observations")
        return cls(mean=float(arr.mean()),
                   std=float(arr.std(ddof=0)),
                   minimum=float(arr.min()),
                   maximum=float(arr.max()),
                   count=int(arr.size))

    def __str__(self) -> str:
        return f"{self.mean:.2f} +- {self.std:.2f} (n={self.count})"


@dataclass
class BatchResult:
    """All evaluations of one batch experiment plus metric summaries."""

    evaluations: List[EpisodeResult] = field(default_factory=list)
    """Greedy evaluation of each surviving repetition, in seed order."""

    failures: List[TaskFailure] = field(default_factory=list)
    """Quarantined repetitions (empty for an all-successful batch)."""

    planned: int = 0
    """Repetitions the batch set out to run (0 for hand-built results)."""

    @property
    def coverage(self) -> float:
        """Surviving fraction of the planned repetitions (1.0 when the
        batch was built by hand rather than by :func:`run_batch`)."""
        if self.planned <= 0:
            return 1.0
        return len(self.evaluations) / self.planned

    def summarize(self) -> Dict[str, Summary]:
        """Summaries of the standard figures of merit (survivors only)."""
        if not self.evaluations:
            detail = ""
            if self.failures:
                detail = (f" — all {len(self.failures)} repetition(s) "
                          "were quarantined")
            raise ConfigurationError("empty batch" + detail)
        return {
            "total_fuel_g": Summary.of(
                [e.total_fuel for e in self.evaluations]),
            "corrected_fuel_g": Summary.of(
                [e.corrected_fuel() for e in self.evaluations]),
            "corrected_mpg": Summary.of(
                [e.corrected_mpg() for e in self.evaluations]),
            "paper_reward": Summary.of(
                [e.total_paper_reward for e in self.evaluations]),
            "final_soc": Summary.of(
                [e.final_soc for e in self.evaluations]),
        }


def _run_repetition(controller_factory, solver_factory, cycle, seed,
                    episodes, initial_soc, faults) -> EpisodeResult:
    """One batch repetition: fresh solver, fresh controller, train, eval.

    Module-level so the supervised executor can run it in a forked worker;
    the factories themselves may be closures (fork needs no pickling).
    """
    solver = solver_factory()
    simulator = Simulator(solver)
    controller = controller_factory(solver, int(seed))
    train(simulator, controller, cycle, episodes=episodes,
          initial_soc=initial_soc, seed=int(seed), evaluate_after=False)
    return evaluate(simulator, controller, cycle, initial_soc=initial_soc,
                    faults=faults)


def run_batch(controller_factory: Callable[[PowertrainSolver, int],
                                           Controller],
              solver_factory: Callable[[], PowertrainSolver],
              cycle: DriveCycle, seeds: Sequence[int],
              episodes: int = 30, initial_soc: float = 0.60,
              faults=None,
              executor: Optional[Supervisor] = None) -> BatchResult:
    """Train/evaluate one controller configuration across ``seeds``.

    ``controller_factory(solver, seed)`` builds a fresh controller per
    repetition; non-learning controllers simply ignore the seed and
    ``episodes`` is irrelevant for them (pass 1 to skip useless drives —
    the evaluation drive is always performed).  The repetition seed is
    also forwarded to :func:`repro.sim.train`, so each repetition draws
    its own exploring-start sequence.

    ``faults`` (a :class:`~repro.faults.schedule.FaultSchedule`) makes the
    *evaluation* drive run in degraded mode while training stays on the
    healthy vehicle — the standard robustness protocol: the policy never
    saw the fault coming.

    ``executor`` selects the execution strategy.  ``None`` (the default)
    runs serially in-process and re-raises any repetition failure, exactly
    like the historical loop.  A :class:`~repro.exec.Supervisor` in
    quarantine mode makes the batch fault-tolerant: failed repetitions
    land in :attr:`BatchResult.failures` and the summaries cover the
    survivors.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if episodes < 1:
        raise ConfigurationError("need at least one episode")
    if executor is None:
        executor = Supervisor(failure_mode="raise")
    tasks = []
    for seed in seeds:
        spec = {"kind": "batch", "cycle": cycle.name, "seed": int(seed),
                "episodes": int(episodes), "initial_soc": float(initial_soc),
                "faulted": faults is not None}
        tasks.append(Task(
            key=f"seed={int(seed)}", spec=spec,
            fn=lambda seed=seed: _run_repetition(
                controller_factory, solver_factory, cycle, seed,
                episodes, initial_soc, faults)))
    sweep = executor.run(tasks)
    batch = BatchResult(planned=len(tasks), failures=list(sweep.failures))
    for task in tasks:
        if task.key in sweep.results:
            batch.evaluations.append(sweep.results[task.key])
    return batch

