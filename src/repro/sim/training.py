"""Training and evaluation loops for learning controllers.

Training repeats the drive cycle for a number of episodes with learning and
annealed exploration enabled, then evaluates the greedy policy with
learning switched off.  The per-episode histories let the ablation benches
plot convergence (reward versus episode).

Every episode streams through the simulator's reusable struct-of-arrays
buffers (:mod:`repro.sim.buffers`); the stored :class:`EpisodeResult`
objects own independent copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from typing import Callable, List, Optional, Union

from repro.control.base import Controller
from repro.cycles.cycle import DriveCycle
from repro.errors import CheckpointError, ConfigurationError
from repro.sim.results import EpisodeResult
from repro.sim.simulator import Simulator


@dataclass
class TrainingRun:
    """Outcome of a training session."""

    episodes: List[EpisodeResult] = field(default_factory=list)
    """Per-episode results, in order, with learning enabled."""

    evaluation: Optional[EpisodeResult] = None
    """Greedy-policy evaluation after training."""

    @property
    def learning_curve(self) -> List[float]:
        """Cumulative learning reward per training episode."""
        return [e.total_reward for e in self.episodes]



def _checkpoint_agent(controller: Controller):
    """The checkpointable agent behind a controller, or raise."""
    agent = getattr(controller, "agent", None)
    if agent is None or not hasattr(agent, "learner"):
        raise CheckpointError(
            "checkpointing requires a learning controller exposing its "
            "agent (e.g. RLController); got "
            f"{type(controller).__name__}")
    return agent


def train(simulator: Simulator, controller: Controller, cycle: DriveCycle,
          episodes: int = 30, initial_soc: float = 0.60,
          initial_soc_jitter: float = 0.10,
          evaluate_after: bool = True,
          callback: Optional[Callable[[int, EpisodeResult], None]] = None,
          seed: int = 0,
          checkpoint_path: Optional[Union[str, Path]] = None,
          checkpoint_every: int = 1,
          resume_from: Optional[Union[str, Path]] = None) -> TrainingRun:
    """Train ``controller`` on ``cycle`` for ``episodes`` drives.

    Training episodes use *exploring starts*: the initial state of charge
    is drawn uniformly from ``initial_soc +- initial_soc_jitter`` (clipped
    to the battery window with margin) so the Q-table is trained across the
    whole charge range rather than only along the trajectory from one
    nominal start — without this, the policy is arbitrary in
    never-visited SoC regions.  Pass ``initial_soc_jitter=0`` for strictly
    repeatable single-start training.

    ``callback(episode_index, result)`` runs after each episode (progress
    reporting, for one); an exception from it propagates.
    When ``evaluate_after`` is set, a final greedy non-learning drive from
    the nominal ``initial_soc`` is recorded in ``evaluation``.

    **Crash safety** — ``checkpoint_path`` writes an atomic training
    checkpoint (:func:`repro.rl.persistence.save_checkpoint`) every
    ``checkpoint_every`` completed episodes.  ``resume_from`` restores one
    and continues training toward the same ``episodes`` total; because the
    checkpoint captures every RNG state the loop consumes, a killed run
    resumed this way produces a final policy *bit-identical* to the
    uninterrupted run (build the resumed controller with the same seed and
    configuration).  ``TrainingRun.episodes`` then holds only the
    post-resume episodes.
    """
    if episodes < 1:
        raise ConfigurationError("need at least one training episode")
    if initial_soc_jitter < 0:
        raise ConfigurationError("SoC jitter cannot be negative")
    if checkpoint_every < 1:
        raise ConfigurationError("checkpoint interval must be >= 1")
    battery = simulator.solver.params.battery
    lo = battery.soc_min + 0.03
    hi = battery.soc_max - 0.03
    rng = np.random.default_rng(seed)
    first_episode = 0
    if resume_from is not None:
        from repro.rl.persistence import load_checkpoint
        agent = _checkpoint_agent(controller)
        first_episode = load_checkpoint(agent, resume_from, train_rng=rng)
        if first_episode >= episodes:
            raise CheckpointError(
                f"checkpoint already holds {first_episode} completed "
                f"episodes; nothing to resume toward episodes={episodes}")
    if checkpoint_path is not None:
        from repro.rl.persistence import save_checkpoint
        agent = _checkpoint_agent(controller)
    telemetry = simulator.telemetry
    span = None
    if telemetry is not None:
        span = telemetry.tracer.start(
            "train.run", cycle=cycle.name, episodes=episodes,
            first_episode=first_episode, resumed=resume_from is not None)
    run = TrainingRun()
    completed = False
    try:
        for ep in range(first_episode, episodes):
            if initial_soc_jitter > 0:
                start = float(np.clip(
                    initial_soc + rng.uniform(-initial_soc_jitter,
                                              initial_soc_jitter), lo, hi))
            else:
                start = initial_soc
            result = simulator.run_episode(controller, cycle,
                                           initial_soc=start, learn=True)
            run.episodes.append(result)
            if telemetry is not None:
                telemetry.event(
                    "training_episode", episode=ep,
                    total_reward=float(result.total_reward),
                    final_soc=float(result.final_soc))
            if callback is not None:
                callback(ep, result)
            if (checkpoint_path is not None
                    and (ep + 1) % checkpoint_every == 0):
                save_checkpoint(agent, checkpoint_path, episode=ep + 1,
                                train_rng=rng)
        if evaluate_after:
            run.evaluation = evaluate(simulator, controller, cycle,
                                      initial_soc=initial_soc)
        completed = True
    finally:
        if span is not None:
            telemetry.tracer.end(
                span, trained=len(run.episodes),
                outcome="ok" if completed else "error")
    return run


def evaluate(simulator: Simulator, controller: Controller, cycle: DriveCycle,
             initial_soc: float = 0.60, faults=None) -> EpisodeResult:
    """One greedy, non-learning drive of ``cycle`` under ``controller``.

    ``faults`` (a :class:`~repro.faults.schedule.FaultSchedule` or bound
    :class:`~repro.faults.harness.FaultHarness`) drives the evaluation in
    degraded mode; the solver is restored afterwards.
    """
    return simulator.run_episode(controller, cycle, initial_soc=initial_soc,
                                 learn=False, greedy=True, faults=faults)


def evaluate_stationary(simulator: Simulator, controller: Controller,
                        cycle: DriveCycle, initial_soc: float = 0.60,
                        settle_passes: int = 1) -> EpisodeResult:
    """Greedy evaluation started at the controller's stationary SoC.

    Every controller settles to its own state-of-charge operating band; a
    drive started away from that band banks or drains charge that the
    cumulative reward (the paper's Table 2 metric) does not account for.
    This helper first drives ``settle_passes`` throwaway passes to let the
    SoC converge, then reports a drive started exactly where the previous
    one ended — so the reported drive is charge-neutral up to the policy's
    own cycle-to-cycle ripple, and cumulative rewards are comparable across
    controllers.
    """
    if settle_passes < 1:
        raise ConfigurationError("need at least one settling pass")
    soc = initial_soc
    for _ in range(settle_passes):
        warmup = simulator.run_episode(controller, cycle, initial_soc=soc,
                                       learn=False, greedy=True)
        soc = warmup.final_soc
    return simulator.run_episode(controller, cycle, initial_soc=soc,
                                 learn=False, greedy=True)
