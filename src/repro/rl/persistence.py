"""Saving and loading trained joint-control policies and training checkpoints.

A trained policy is more than the Q-table: reloading it requires the exact
state discretisation, action grid, and reward weights it was trained with,
or the table's rows and columns mean something else entirely.  This module
writes the Q-table together with the configuration fingerprint as one
``<stem>.rpa`` file (the package's one table container,
:mod:`repro.artifact`), and refuses to load a table into an agent whose
configuration does not match.

Three guarantees underpin crash-safe training
(:func:`repro.sim.training.train` with ``checkpoint_path=`` /
``resume_from=``):

* **Atomic writes** — a save is one file committed by one atomic rename,
  so a crash or a full disk mid-save leaves the previous policy or
  checkpoint loadable and unchanged.
* **Complete state** — a training checkpoint's ``state`` header captures,
  besides the value tables, every random-number-generator state and
  annealing counter the training loop consumes (exploration RNG +
  epsilon, learner episode counter, double-Q coin, adaptive SoC price,
  exploring-starts RNG), so a killed-and-resumed run replays
  *bit-identically* the episodes an uninterrupted run would have
  produced.
* **Integrity checking** — the header records the SHA-256 digest of the
  table bytes; loading verifies it, so silent on-disk corruption (bit
  rot, torn copies, partial downloads) surfaces as a structured
  :class:`repro.errors.PersistenceError` naming both digests instead of
  a quietly scrambled policy.

All writes go through :mod:`repro.fsio`, the chaos harness's fault
injection point (``repro.chaos`` attacks these guarantees with simulated
ENOSPC, torn writes, and bit rot, and verifies the promises above); with
no shim installed the wrappers are pass-through.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.artifact import read_table, write_table
from repro.errors import CheckpointError
from repro.rl.agent import JointControlAgent

FORMAT_VERSION = 1
"""Policy serialisation format version."""

CHECKPOINT_VERSION = 1
"""Training-checkpoint serialisation format version."""


def _fingerprint(agent: JointControlAgent) -> dict:
    """Configuration fingerprint that must match between save and load."""
    return {
        "format_version": FORMAT_VERSION,
        "num_states": agent.discretizer.num_states,
        "state_shape": list(agent.discretizer.shape),
        "num_rl_actions": agent.num_rl_actions,
        "current_levels": [float(x) for x in agent.current_levels],
        "aux_levels": [float(x) for x in agent.aux_levels],
        "reduced": agent.action_config.reduced,
        "has_predictor": agent.predictor is not None,
        "aux_weight": agent.reward_config.aux_weight,
    }


def _check_fingerprint(agent: JointControlAgent, header: dict,
                       what: str) -> None:
    current = _fingerprint(agent)
    saved = header["fingerprint"]
    mismatched = {key for key in current if saved.get(key) != current[key]}
    if mismatched:
        raise CheckpointError(
            f"{what} is incompatible with this agent; mismatched "
            f"fields: {sorted(mismatched)}")


def save_policy(agent: JointControlAgent, path: Union[str, Path]) -> None:
    """Persist an agent's policy to ``<path>.rpa`` (one atomic write)."""
    write_table(Path(path).with_suffix(".rpa"),
                agent.learner.qtable.values, _fingerprint(agent))


def load_policy(agent: JointControlAgent, path: Union[str, Path]) -> None:
    """Load a saved policy into a compatibly configured agent (in place).

    Raises :class:`repro.errors.CheckpointError` when the agent's
    configuration fingerprint does not match the saved one — a
    mismatched discretiser or action grid would silently scramble the
    policy otherwise.  A missing file surfaces as
    :class:`FileNotFoundError`.
    """
    header, q = read_table(Path(path).with_suffix(".rpa"))
    _check_fingerprint(agent, header, "saved policy")
    if q.shape != agent.learner.qtable.values.shape:
        raise CheckpointError(
            f"Q-table shape {q.shape} does not match agent "
            f"{agent.learner.qtable.values.shape}")
    agent.learner.qtable.values[:] = q


def save_checkpoint(agent: JointControlAgent, path: Union[str, Path],
                    episode: int,
                    train_rng: Optional[np.random.Generator] = None) -> None:
    """Write a crash-safe training checkpoint at an episode boundary.

    ``episode`` is the number of training episodes *completed* so far.
    ``train_rng`` is the training loop's exploring-starts generator (its
    state is captured so resumed runs draw the same initial SoCs).  The
    checkpoint is one file, ``<path>.rpa``, written atomically.
    """
    if episode < 0:
        raise CheckpointError("completed-episode count cannot be negative")
    learner = agent.learner
    state = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "episode": int(episode),
        "learner": learner.checkpoint_meta(),
        "exploration": agent.exploration.state_dict(),
        "soc_price": float(agent.reward.soc_price),
        "train_rng_state": (train_rng.bit_generator.state
                            if train_rng is not None else None),
    }
    write_table(Path(path).with_suffix(".rpa"), learner.checkpoint_table(),
                _fingerprint(agent), state=state)


def load_checkpoint(agent: JointControlAgent, path: Union[str, Path],
                    train_rng: Optional[np.random.Generator] = None) -> int:
    """Restore a training checkpoint into ``agent`` (in place).

    Restores value tables, learner counters, exploration state, the
    adaptive SoC price, and — when ``train_rng`` is passed — the training
    loop's exploring-starts generator state.  Returns the number of
    episodes already completed, so the caller continues from there.

    Raises :class:`repro.errors.CheckpointError` on fingerprint or format
    mismatches; a missing file surfaces as :class:`FileNotFoundError`.
    """
    header, table = read_table(Path(path).with_suffix(".rpa"))
    meta = header.get("state", {})
    if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {meta.get('checkpoint_version')!r}"
            f" (expected {CHECKPOINT_VERSION}); was this written by "
            "save_policy instead of save_checkpoint?")
    _check_fingerprint(agent, header, "checkpoint")
    expected = np.shape(agent.learner.checkpoint_table())
    if table.shape != expected:
        raise CheckpointError(
            f"checkpoint table shape {table.shape} does not match this "
            f"agent's {expected}; the saved learner algorithm probably "
            "differs from this agent's")
    try:
        agent.learner.restore_checkpoint(table, meta["learner"])
    except KeyError as exc:
        raise CheckpointError(
            f"checkpoint is missing learner state {exc}; the saved learner "
            "algorithm probably differs from this agent's") from exc
    agent.exploration.load_state_dict(meta["exploration"])
    agent.reward.set_soc_price(meta["soc_price"])
    if train_rng is not None:
        if meta.get("train_rng_state") is None:
            raise CheckpointError(
                "checkpoint has no training-loop RNG state; it was not "
                "written by the training loop's checkpointer")
        train_rng.bit_generator.state = meta["train_rng_state"]
    return int(meta["episode"])
