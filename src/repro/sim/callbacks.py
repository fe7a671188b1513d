"""Training callbacks: progress, early stopping, checkpointing.

:func:`repro.sim.training.train` accepts a single ``callback(episode,
result)``; this module provides composable implementations — a progress
printer, reward-plateau early stopping, and a best-policy checkpointer
built on :mod:`repro.rl.persistence` — plus :class:`CallbackList` to chain
them::

    train(simulator, controller, cycle, episodes=200,
          callback=CallbackList([ProgressPrinter(every=10),
                                 EarlyStopping(patience=15)]))

Early stopping raises :class:`~repro.sim.training.StopTraining` (re-exported
here), which ``train()`` turns into a clean end of the loop.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.rl.agent import JointControlAgent
from repro.rl.persistence import save_policy
from repro.sim.results import EpisodeResult
from repro.sim.training import StopTraining


class CallbackList:
    """Invoke several callbacks in order."""

    def __init__(self, callbacks: Sequence[Callable[[int, EpisodeResult],
                                                    None]]):
        self._callbacks = list(callbacks)

    def __call__(self, episode: int, result: EpisodeResult) -> None:
        for callback in self._callbacks:
            callback(episode, result)


class ProgressPrinter:
    """Print a one-line summary every ``every`` episodes."""

    def __init__(self, every: int = 10, printer: Callable[[str], None] = print):
        if every < 1:
            raise ConfigurationError("print interval must be >= 1")
        self._every = every
        self._print = printer

    def __call__(self, episode: int, result: EpisodeResult) -> None:
        if (episode + 1) % self._every == 0:
            self._print(
                f"episode {episode + 1:4d}: reward {result.total_reward:9.2f}"
                f"  fuel {result.total_fuel:7.1f} g"
                f"  SoC -> {result.final_soc:.3f}")


class EarlyStopping:
    """Stop when the episode reward stops improving.

    Tracks the best cumulative learning reward seen; after ``patience``
    consecutive episodes without at least ``min_delta`` improvement, raises
    :class:`StopTraining`.
    """

    def __init__(self, patience: int = 10, min_delta: float = 1.0):
        if patience < 1:
            raise ConfigurationError("patience must be >= 1")
        if min_delta < 0:
            raise ConfigurationError("min_delta cannot be negative")
        self._patience = patience
        self._min_delta = min_delta
        self.best: Optional[float] = None
        self.stale = 0
        self.stopped_at: Optional[int] = None

    def __call__(self, episode: int, result: EpisodeResult) -> None:
        reward = result.total_reward
        if self.best is None or reward > self.best + self._min_delta:
            self.best = reward
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= self._patience:
                self.stopped_at = episode
                raise StopTraining(
                    f"no reward improvement in {self._patience} episodes")


class BestPolicyCheckpoint:
    """Persist the agent's policy whenever the episode reward improves."""

    def __init__(self, agent: JointControlAgent, path: Union[str, Path]):
        self._agent = agent
        self._path = Path(path)
        self.best: Optional[float] = None
        self.saves = 0

    def __call__(self, episode: int, result: EpisodeResult) -> None:
        if self.best is None or result.total_reward > self.best:
            self.best = result.total_reward
            save_policy(self._agent, self._path)
            self.saves += 1
