"""Frozen reference implementations of the fleet serving set-up paths.

This module pins the seed semantics of the serving-plane pieces that were
rewritten for speed or merged:

* :func:`reference_sensor_noise` — the fleet's per-vehicle SoC noise,
  built by spawning one ``SeedSequence`` child for *every* vehicle of the
  global population and drawing from the faulty ones' children;
* :class:`ReferenceLRUServer` — a :class:`repro.serve.PolicyServer`
  whose decisions go through the seed ``OrderedDict`` LRU cache (a
  Python loop of ``get``/``move_to_end`` over the unique states, capped
  at 4096 entries), cleared at the seed's three sites: activation,
  fallback and rollback;
* :func:`reference_tick_states` — the fleet's per-tick drive and
  discretisation as every tick used to redo it: each vehicle's cycle
  position and successor, speed, acceleration,
  ``VehicleDynamics.power_demand``, the clipped noisy SoC and one
  :func:`reference_state_of_batch` (``np.searchsorted`` per dimension
  and ``np.ravel_multi_index``).  :class:`ReferenceDriveTable` puts it
  behind the fleet's per-run drive-table interface, so a whole fleet
  run can be driven through it;
* :func:`reference_canary_evaluate` and :func:`reference_watchdog_check`
  — the canary's and the regression watchdog's verdicts as each carried
  its own copy of the regression rule, read off the live statistics.

The equivalence suite (``tests/test_serve_equivalence.py``) drives these
side by side with the production paths and demands byte-identical noise
and states, identical decisions and cache counters, and identical
regression verdicts.  None of this is used by the package.  Do **not**
"optimise" this file — its value is that it does not change.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

import numpy as np

from repro.errors import ServeError
from repro.rl.discretize import StateDiscretizer
from repro.serve import FleetConfig, PolicyServer
from repro.vehicle.dynamics import VehicleDynamics

NOISE_STREAM_KEY = 0x5EED
"""The seed fleet's SeedSequence key of the sensor-noise streams."""


def reference_sensor_noise(cfg: FleetConfig, faulty: np.ndarray,
                           steps: int) -> np.ndarray:
    """The seed ``(steps, vehicles)`` noise matrix of a fleet slice."""
    n = cfg.vehicles
    lo = cfg.vehicle_offset
    total = cfg.total_vehicles if cfg.total_vehicles is not None else n
    children = np.random.SeedSequence(
        [cfg.seed, NOISE_STREAM_KEY]).spawn(total)
    noise = np.zeros((steps, n))
    for i in np.flatnonzero(faulty):
        noise[:, i] = np.random.default_rng(
            children[lo + int(i)]).normal(0.0, cfg.sensor_noise,
                                          size=steps)
    return noise


class ReferenceLRUServer(PolicyServer):
    """A policy server deciding through the seed LRU decision cache."""

    cache_size = 4096
    """The seed ``ServeConfig.cache_size`` default."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cache: "OrderedDict[int, int]" = OrderedDict()

    def _activate(self, artifact, reason: str) -> None:
        self._previous = self._active
        self._active = artifact
        self._last_fingerprint = artifact.fingerprint
        self._cache.clear()
        self.swaps += 1
        self._count("serve.swap")
        self._set_version_gauge()
        if self._telemetry is not None:
            previous = self._previous.version if self._previous else 0
            self._telemetry.event("serve_swap", from_version=previous,
                                  to_version=artifact.version,
                                  activated="yes", reason=reason)

    def _engage_fallback(self) -> None:
        self._previous = self._active
        self._active = None
        self._cache.clear()
        self._set_version_gauge()

    def rollback(self, reason: str = "manual") -> int:
        if self._previous is None:
            raise ServeError("no previous policy to roll back to")
        rolled_from = self.active_version
        self._active = self._previous
        self._previous = None
        self._last_fingerprint = self._active.fingerprint
        self._cache.clear()
        self.rollbacks += 1
        self._count("serve.rollback")
        self._set_version_gauge()
        if self._telemetry is not None:
            self._telemetry.event("serve_rollback", version=rolled_from,
                                  reason=reason, decisions=self.decisions)
        return self.active_version

    def _decide(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_1d(np.asarray(states, dtype=np.intp))
        self.decisions += int(states.size)
        active = self._active
        if active is None:
            self.fallback_decisions += int(states.size)
            return np.full(states.shape, self._fallback_action(),
                           dtype=np.intp)
        self._check_states(states, active)
        uniq, inverse = np.unique(states, return_inverse=True)
        cache = self._cache
        uniq_actions = np.empty(uniq.shape, dtype=np.intp)
        missing: List[int] = []
        for i, state in enumerate(uniq.tolist()):
            action = cache.get(state)
            if action is None:
                missing.append(i)
            else:
                uniq_actions[i] = action
                cache.move_to_end(state)
        self.cache_hits += len(uniq) - len(missing)
        if missing:
            self.cache_misses += len(missing)
            fresh = active.greedy(uniq[missing])
            for i, action in zip(missing, fresh.tolist()):
                uniq_actions[i] = action
                cache[int(uniq[i])] = int(action)
            while len(cache) > self.cache_size:
                cache.popitem(last=False)
        return uniq_actions[inverse].reshape(states.shape)


def reference_state_of_batch(discretizer: StateDiscretizer, power_demands,
                             speeds, socs, prediction_levels=0) -> np.ndarray:
    """The seed vectorised discretisation: three ``np.searchsorted`` and
    one ``np.ravel_multi_index`` over the broadcast bin indices."""
    shape = discretizer.shape
    ip = np.searchsorted(discretizer._power_edges,
                         np.asarray(power_demands, dtype=float),
                         side="right")
    iv = np.searchsorted(discretizer._speed_edges,
                         np.asarray(speeds, dtype=float), side="right")
    iq = np.clip(np.searchsorted(discretizer._soc_edges,
                                 np.asarray(socs, dtype=float),
                                 side="right"),
                 0, shape[2] - 1)
    il = np.clip(np.asarray(prediction_levels, dtype=np.intp),
                 0, shape[3] - 1)
    return np.ravel_multi_index(np.broadcast_arrays(ip, iv, iq, il), shape)


def reference_tick_states(speeds_per_cycle, cycle_idx: np.ndarray,
                          phase: np.ndarray, dynamics: VehicleDynamics,
                          discretizer: StateDiscretizer, dt: float, t: int,
                          socs: np.ndarray) -> np.ndarray:
    """The seed fleet's state ids at tick ``t``, from scratch.

    ``socs`` is the noisy SoC reading before the seed's clip to
    ``[0, 1]``.
    """
    lengths = np.array([len(s) for s in speeds_per_cycle])
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    flat_speeds = np.concatenate(speeds_per_cycle)
    pos = (phase + t) % lengths[cycle_idx]
    nxt = (pos + 1) % lengths[cycle_idx]
    speed = flat_speeds[offsets[cycle_idx] + pos]
    accel = (flat_speeds[offsets[cycle_idx] + nxt] - speed) / dt
    p_dem = np.asarray(dynamics.power_demand(speed, accel), dtype=float)
    obs_soc = np.clip(socs, 0.0, 1.0)
    return reference_state_of_batch(discretizer, p_dem, speed, obs_soc)


class ReferenceDriveTable:
    """:func:`reference_tick_states` behind the fleet's drive-table
    interface (same constructor, ``states(t, socs)``)."""

    def __init__(self, speeds_per_cycle, cycle_idx, phase, dynamics,
                 discretizer, dt):
        self._args = (speeds_per_cycle, cycle_idx, phase, dynamics,
                      discretizer, dt)

    def states(self, t: int, socs: np.ndarray) -> np.ndarray:
        return reference_tick_states(*self._args, t, socs)


def reference_canary_evaluate(rollout) -> tuple:
    """The seed ``CanaryRollout._evaluate`` on ``rollout``'s statistics:
    ``(verdict, reason)``, ``(None, "")`` while undecided."""
    cfg = rollout.config
    can, inc = rollout._canary, rollout._incumbent
    if can.count >= cfg.min_samples and inc.count >= cfg.min_samples:
        scale = max(inc.std, 1e-12)
        deficit = (inc.mean - can.mean) / scale
        if deficit > cfg.sigmas:
            return "rollback", (
                f"canary reward {can.mean:.4f} is {deficit:.1f} sigma "
                f"below incumbent {inc.mean:.4f} after "
                f"{can.count} canary decisions")
        can_rate = rollout._canary_interventions / can.count
        inc_rate = rollout._incumbent_interventions / inc.count
        if can_rate > inc_rate + cfg.intervention_margin:
            return "rollback", (
                f"canary intervention rate {can_rate:.2%} exceeds "
                f"incumbent {inc_rate:.2%} by more than "
                f"{cfg.intervention_margin:.0%}")
    if can.count >= cfg.decision_budget:
        return "promote", (
            f"no regression after {can.count} canary decisions "
            f"(budget {cfg.decision_budget})")
    return None, ""


def reference_watchdog_check(reward, interventions: int, decisions: int,
                             result, sigmas: float = 3.0,
                             intervention_margin: float = 0.05,
                             min_runs: int = 2):
    """The seed ``RegressionWatchdog.check`` (at its default thresholds)
    on a baseline of ``reward`` moments and intervention totals."""
    if reward.count < min_runs or result.decisions <= 0:
        return None
    scale = max(reward.std, 1e-12)
    deficit = (reward.mean - result.mean_reward) / scale
    if deficit > sigmas:
        return (f"fleet reward {result.mean_reward:.4f} is "
                f"{deficit:.1f} sigma below the incumbent baseline "
                f"{reward.mean:.4f} ({reward.count} runs)")
    base_rate = interventions / decisions if decisions else 0.0
    rate = result.interventions / result.decisions
    if rate > base_rate + intervention_margin:
        return (f"fleet intervention rate {rate:.2%} exceeds the "
                f"incumbent baseline {base_rate:.2%} by more than "
                f"{intervention_margin:.0%}")
    return None
