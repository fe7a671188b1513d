"""Simulation harness: episode runner, result accumulation, training loop.

The simulator replays a drive cycle step by step against any controller
implementing the :class:`repro.control.base.Controller` protocol (the RL
agent, the rule-based baseline, ECMS, ...), tracking battery charge by
Coulomb counting and accumulating fuel, reward, and diagnostic traces.
"""

from repro.sim.buffers import EpisodeBuffers
from repro.sim.results import EpisodeResult
from repro.sim.simulator import Simulator
from repro.sim.training import TrainingRun, evaluate, evaluate_stationary, train
from repro.sim.batch import BatchResult, Summary, run_batch
from repro.sim.robustness import (
    RobustnessReport,
    RobustnessRow,
    run_robustness,
)

__all__ = [
    "EpisodeBuffers",
    "EpisodeResult",
    "Simulator",
    "TrainingRun",
    "train",
    "evaluate",
    "evaluate_stationary",
    "BatchResult",
    "Summary",
    "run_batch",
    "RobustnessReport",
    "RobustnessRow",
    "run_robustness",
]
