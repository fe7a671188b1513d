"""Markov-chain trip generation: "real-world" stochastic drive cycles.

Regulatory cycles are repeatable by construction; real driving is not —
which is the paper's motivation for a learning controller.  This module
generates stochastic trips from a first-order Markov chain over
(speed-bin, acceleration-bin) states, optionally *fitted to* an existing
cycle so generated trips share its statistical character (a UDDS-like city
trip that is never literally UDDS).  The examples use it for
generalisation studies: train on synthetic commutes, evaluate on fresh
draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cycles.cycle import DriveCycle

_ACCEL_LEVELS = np.array([-1.8, -1.2, -0.7, -0.3, 0.0, 0.3, 0.7, 1.2])
"""Acceleration bin centres used by the chain, m/s^2."""


@dataclass(frozen=True)
class ChainModel:
    """Fitted first-order chain over (speed-bin, accel-bin) states."""

    speed_edges: np.ndarray
    """Speed bin edges, m/s."""

    transition_counts: np.ndarray
    """Counts[s_bin, a_bin, a_bin_next] with Laplace smoothing applied."""

    max_speed: float
    """Cap on generated speeds, m/s."""


def fit_chain(cycle: DriveCycle, speed_bins: int = 8,
              smoothing: float = 0.2) -> ChainModel:
    """Fit the chain to one cycle's (speed, acceleration) sequence."""
    if speed_bins < 2:
        raise ValueError("need at least two speed bins")
    if smoothing < 0:
        raise ValueError("smoothing cannot be negative")
    speeds = cycle.speeds[:-1]
    accels = np.diff(cycle.speeds) / cycle.dt
    max_speed = float(cycle.max_speed)
    speed_edges = np.linspace(0.0, max_speed, speed_bins + 1)[1:-1]

    s_bins = np.searchsorted(speed_edges, speeds, side="right")
    a_bins = np.argmin(np.abs(accels[:, None] - _ACCEL_LEVELS[None, :]),
                       axis=1)
    counts = np.full((speed_bins, len(_ACCEL_LEVELS), len(_ACCEL_LEVELS)),
                     smoothing)
    for t in range(len(a_bins) - 1):
        counts[s_bins[t], a_bins[t], a_bins[t + 1]] += 1.0
    return ChainModel(speed_edges=speed_edges, transition_counts=counts,
                      max_speed=max_speed)


def generate_trip(model: ChainModel, duration: float, seed: int,
                  name: str = "markov-trip") -> DriveCycle:
    """Sample one trip of ``duration`` seconds from a fitted chain.

    The trip starts and ends at rest (the tail is ramped down) and speeds
    are clipped to the model's observed maximum.
    """
    if duration < 30:
        raise ValueError("trips shorter than 30 s are not meaningful")
    rng = np.random.default_rng(seed)
    n = int(round(duration)) + 1
    speeds = np.zeros(n)
    a_bin = len(_ACCEL_LEVELS) // 2
    for t in range(1, n):
        v = speeds[t - 1]
        s_bin = int(np.searchsorted(model.speed_edges, v, side="right"))
        probs = model.transition_counts[s_bin, a_bin]
        probs = probs / probs.sum()
        a_bin = int(rng.choice(len(_ACCEL_LEVELS), p=probs))
        accel = _ACCEL_LEVELS[a_bin]
        # At standstill, forbid deceleration (reflects the chain's boundary).
        if v <= 0.0 and accel < 0.0:
            accel = 0.0
        speeds[t] = float(np.clip(v + accel, 0.0, model.max_speed))

    # Force a clean stop at the end.
    decel = 1.4
    ramp = int(np.ceil(speeds[-1] / decel)) + 1
    ramp = min(ramp, n - 1)
    if ramp > 0:
        target = np.linspace(speeds[-ramp - 1], 0.0, ramp + 1)[1:]
        speeds[-ramp:] = np.minimum(speeds[-ramp:], target)
    speeds[-1] = 0.0
    return DriveCycle(name, speeds, dt=cycle_dt(model))


def cycle_dt(model: ChainModel) -> float:
    """Sample period of generated trips, s (the chain is fitted at 1 Hz)."""
    return 1.0
