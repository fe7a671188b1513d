"""Fleet load generator: heterogeneous vehicles driving a policy server.

A :class:`FleetSimulator` runs a population of lightweight vehicles —
heterogeneous across drive cycle, phase offset, auxiliary load, initial
state of charge, and fault scenario (noisy SoC sensing) — against a
:class:`repro.serve.PolicyServer`.  The model is backward-looking (paper
Eq. 5-7), so a vehicle's speed, acceleration and power demand follow
from its cycle position alone: a run bins them once per position of its
cycles (:class:`_DriveTable`).  Each simulated second the whole
population's state ids are then one gather plus the charge bin
(:meth:`repro.rl.discretize.StateDiscretizer.state_of_drive`), batched
into decision requests through the server's bounded queue, and stepped
with a simplified battery model (Coulomb counting, the same sign
convention as :mod:`repro.vehicle.battery`, plus an auxiliary drain).

This is deliberately *not* the full powertrain simulator: a vehicle here
costs nanoseconds, which is what lets tens of thousands of them hammer
the server hard enough to measure decisions/sec, decision-latency
percentiles, and load shedding.  Fidelity lives in two places that
matter for the robustness story:

* **Reward proxy** — every decision is scored by the *run-start
  incumbent's* Q-value for the (state, action) pair, an off-policy
  evaluation under the incumbent's own value function.  A regressed
  canary candidate picks actions the incumbent values less, which is
  exactly the signal :class:`repro.serve.canary.CanaryRollout` needs.
* **Safety envelope** — vehicles at the SoC window edge clamp
  discharging/charging actions to the zero-current level and count an
  intervention, mirroring the safety supervisor's feasibility envelope;
  shed requests degrade the affected vehicles to the same rule-based
  zero-current action (the LIMP_HOME analogue) and are counted as limp
  decisions.

**Shard-count invariance.**  A fleet can be partitioned: ``vehicles``
vehicles starting at ``vehicle_offset`` of a ``total_vehicles``-wide
population.  Population attributes are drawn once for the *global*
population and sliced, each faulty vehicle's sensor-noise stream is
the child ``SeedSequence([seed, 0x5EED]).spawn(total)[gid]`` of its
global vehicle id ``gid`` (built directly through ``spawn_key``), and
rewards accumulate per vehicle and aggregate with
:func:`math.fsum` (exactly-rounded, so grouping-free) — which is what
makes :func:`run_fleet_sharded` aggregates bit-identical for any shard
count, as long as no requests are shed (queue pressure is inherently
per-server; the regression test uses a shed-free config).

**Experience streaming.**  Given ``experience=`` (an
:class:`repro.learn.ExperienceStream`-shaped object), each tick's served
transitions go to the online learner as one ``offer_batch`` call of
``(s, a, r, s′, policy_version)`` columns, which the stream journals as
one line — with the degradation wiring the loop depends on:
vehicles with a faulty sensor (the fleet's DEGRADED analogue) are
frozen out of the stream, limp/shed vehicles (the LIMP_HOME analogue)
never produce records because they were not served, a degraded
(fallback) server streams nothing at all, and a stream write failure
freezes *streaming* for the rest of the run while serving continues
untouched.  Streaming never alters decisions: a run with a stream
attached is bit-identical to one without (golden-tested).

Runs are deterministic for a given ``(config, server state)`` and
bit-identical with telemetry attached or not (golden-tested).  For
wall-clock scale beyond one process, :func:`run_fleet_sharded` splits
the population across fork-isolated workers through
:class:`repro.exec.Supervisor`, one server per worker over a shared
registry.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.cycles import standard_cycle
from repro.errors import ExperienceError, ServeError
from repro.rl.discretize import StateDiscretizer
from repro.serve.registry import PolicyRegistry
from repro.serve.server import PolicyServer
from repro.vehicle import default_vehicle
from repro.vehicle.dynamics import VehicleDynamics

_BUS_VOLTAGE = 200.0
"""Nominal bus voltage used to convert auxiliary watts into amps."""

_NOISE_STREAM_KEY = 0x5EED
"""SeedSequence key separating sensor-noise streams from other draws."""

_AUX_LOADS_W = (250.0, 500.0, 1000.0)
"""Auxiliary electrical loads (W) vehicles are assigned across."""


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one fleet load-generation run."""

    vehicles: int = 1024
    """Population size this run drives (one shard's slice when
    partitioned; the whole fleet otherwise)."""

    steps: int = 120
    """Simulated seconds each vehicle drives."""

    dt: float = 1.0
    """Simulation step, seconds."""

    cycles: Tuple[str, ...] = ("UDDS", "NYCC", "SC03")
    """Built-in drive cycles vehicles are assigned across."""

    fault_fraction: float = 0.1
    """Fraction of vehicles with a noisy SoC sensor (fault scenario)."""

    sensor_noise: float = 0.02
    """Std-dev of the faulty vehicles' SoC observation noise."""

    request_batch: int = 256
    """Vehicles per decision request (smaller = more queue pressure)."""

    seed: int = 0
    """Seed of population assignment and sensor noise."""

    total_vehicles: Optional[int] = None
    """Global fleet size when this run is one shard of a partitioned
    fleet (``None`` = this run *is* the whole fleet).  Population
    attributes and noise streams are keyed by global vehicle id, so
    every partition of the same total is bit-identical in aggregate."""

    vehicle_offset: int = 0
    """First global vehicle id of this run's slice."""

    def __post_init__(self):
        if self.vehicles < 1:
            raise ServeError("a fleet needs at least one vehicle")
        _check_steps(self.steps)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ServeError(f"dt must be finite and positive, got {self.dt}")
        if not self.cycles:
            raise ServeError("a fleet needs at least one drive cycle")
        if not 0.0 <= self.fault_fraction <= 1.0:
            raise ServeError("fault_fraction must lie in [0, 1]")
        if not (math.isfinite(self.sensor_noise)
                and self.sensor_noise >= 0):
            raise ServeError(f"sensor_noise must be finite and >= 0, got "
                             f"{self.sensor_noise}")
        if self.request_batch < 1:
            raise ServeError("request_batch must be at least 1")
        if self.vehicle_offset < 0:
            raise ServeError("vehicle_offset cannot be negative")
        if self.total_vehicles is not None and self.total_vehicles < 1:
            raise ServeError("total_vehicles must be positive (or None)")
        total = (self.total_vehicles if self.total_vehicles is not None
                 else self.vehicles)
        if self.vehicle_offset + self.vehicles > total:
            raise ServeError(
                f"vehicle slice [{self.vehicle_offset}, "
                f"{self.vehicle_offset + self.vehicles}) exceeds the "
                f"global population of {total}")


@dataclass
class FleetResult:
    """Aggregates of one fleet run against a policy server."""

    vehicles: int
    """Population size driven."""

    steps: int
    """Simulated seconds per vehicle."""

    decisions: int
    """Decisions the fleet consumed (served, not shed)."""

    shed_requests: int
    """Decision requests shed by the server's bounded queue."""

    limp_decisions: int
    """Vehicle-steps degraded to the local rule-based action because
    their request was shed (the fleet-side LIMP_HOME analogue)."""

    interventions: int
    """SoC-window envelope clamps applied across the run."""

    mean_reward: float
    """Mean decision reward under the run-start incumbent's Q-values
    (an exactly-rounded :func:`math.fsum` over per-vehicle totals, so
    the value is independent of request batching and sharding)."""

    elapsed_s: float
    """Wall-clock of the run."""

    decisions_per_sec: float
    """Served decisions per wall-clock second."""

    vehicles_per_min: float
    """Full vehicle-drives completed per wall-clock minute."""

    request_latencies_s: np.ndarray
    """Per-request submit-to-answer latencies (served requests only)."""

    canary_verdict: Optional[str] = None
    """``"rollback"``/``"promote"`` if a canary resolved during the run."""

    rollback: Optional[dict] = None
    """The server's :attr:`~repro.serve.PolicyServer.last_rollback`
    record when the run ended in a rollback."""

    actions: Optional[np.ndarray] = None
    """``(steps, vehicles)`` action trace when recorded (golden tests)."""

    final_soc: Optional[np.ndarray] = None
    """Per-vehicle final state of charge when the trace was recorded."""

    vehicle_rewards: Optional[np.ndarray] = None
    """Per-vehicle summed decision rewards, in slice order (what shard
    aggregation concatenates and :func:`math.fsum`\\ s)."""

    experience_records: int = 0
    """Experience records (transitions, not journal lines) durably
    journaled during the run."""

    experience_shed: int = 0
    """Experience records shed oldest-first by stream backpressure."""

    stream_errors: int = 0
    """Stream write failures (each freezes streaming, never serving)."""


def _sensor_noise(cfg: FleetConfig, faulty: np.ndarray,
                  steps: int) -> np.ndarray:
    """``(steps, vehicles)`` SoC observation noise of a fleet slice.

    The second half of shard-count invariance: every faulty vehicle owns
    a noise stream keyed by its *global* id -- the SeedSequence child
    ``spawn(total)[gid]`` would hand it, built directly -- so it observes
    the same noise whatever shard it lands in.  Healthy vehicles build
    no stream, draw nothing and keep exactly-zero columns.
    """
    noise = np.zeros((steps, cfg.vehicles))
    for i in np.flatnonzero(faulty):
        child = np.random.SeedSequence(
            [cfg.seed, _NOISE_STREAM_KEY],
            spawn_key=(cfg.vehicle_offset + int(i),))
        noise[:, i] = np.random.default_rng(child).normal(
            0.0, cfg.sensor_noise, size=steps)
    return noise


class _DriveTable:
    """The drive-fixed half of every vehicle's state, built once per run.

    One entry per position of the run's cycles (concatenated): its
    successor (wrapping within its own cycle), the acceleration towards
    it, the power demand from :meth:`VehicleDynamics.power_demand` and
    the discretiser's drive index.  Memory is O(cycle positions), not
    O(steps x vehicles); a tick gathers its vehicles' drive indices and
    joins them with the SoC bin.
    """

    def __init__(self, speeds_per_cycle, cycle_idx: np.ndarray,
                 phase: np.ndarray, dynamics: VehicleDynamics,
                 discretizer: StateDiscretizer, dt: float):
        lengths = np.array([len(s) for s in speeds_per_cycle])
        offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        speed = np.concatenate(speeds_per_cycle)
        successor = np.arange(1, len(speed) + 1)
        successor[offsets + lengths - 1] = offsets
        accel = (speed[successor] - speed) / dt
        p_dem = np.asarray(dynamics.power_demand(speed, accel), dtype=float)
        self._drive = discretizer.drive_index(p_dem, speed)
        self._discretizer = discretizer
        self._base = offsets[cycle_idx]
        self._length = lengths[cycle_idx]
        self._phase = phase

    def states(self, t: int, socs: np.ndarray) -> np.ndarray:
        """State ids of the fleet at tick ``t`` observing ``socs``.

        A noisy ``socs`` needs no clipping to ``[0, 1]`` first: the
        discretiser's SoC edges lie strictly inside its window, which
        lies inside ``[0, 1]``, so a reading past either end already
        falls in the end bin its clipped value would.
        """
        pos = self._base + (self._phase + t) % self._length
        return self._discretizer.state_of_drive(self._drive[pos], socs)


def _check_steps(steps) -> int:
    """``steps`` as an int, or a :class:`ServeError` unless it is an
    integer >= 1 (``bool`` included among the non-integers)."""
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise ServeError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ServeError(f"a fleet run needs at least one step, got {steps}")
    return int(steps)


class FleetSimulator:
    """Drives a heterogeneous vehicle population against a server."""

    def __init__(self, server: PolicyServer,
                 config: Optional[FleetConfig] = None,
                 record_trace: bool = False,
                 experience=None):
        self._server = server
        self._config = config or FleetConfig()
        self._record = record_trace
        self._experience = experience
        params = default_vehicle()
        self._dynamics = VehicleDynamics(params.body)
        battery = params.battery
        self._capacity = float(battery.capacity)
        self._soc_min = float(battery.soc_min)
        self._soc_max = float(battery.soc_max)
        self._discretizer = StateDiscretizer(soc_min=self._soc_min,
                                             soc_max=self._soc_max)
        fingerprint = self._fingerprint()
        if fingerprint.get("num_states") not in (
                None, self._discretizer.num_states):
            raise ServeError(
                f"served policy covers {fingerprint['num_states']} states "
                f"but the fleet discretiser produces "
                f"{self._discretizer.num_states}; the policy was trained "
                "under a non-default discretisation")
        levels = fingerprint.get("current_levels")
        if not levels:
            raise ServeError(
                "the server has no known policy fingerprint; activate a "
                "policy before running the fleet against it")
        self._levels = np.asarray(levels, dtype=float)
        self._zero_action = int(np.argmin(np.abs(self._levels)))

    def _fingerprint(self) -> dict:
        artifact = self._server.active_artifact
        if artifact is not None:
            return artifact.fingerprint
        fingerprint = getattr(self._server, "_last_fingerprint", None)
        return fingerprint or {}

    def run(self, steps: Optional[int] = None) -> FleetResult:
        """Drive the configured population; returns the aggregates.

        When an experience stream is attached, each tick emits the
        *previous* tick's served transitions as one batch (their
        successor state is only observed now); the final tick's
        transitions have no observed successor and are not emitted.
        """
        cfg = self._config
        steps = cfg.steps if steps is None else _check_steps(steps)
        n = cfg.vehicles
        lo = cfg.vehicle_offset
        total = cfg.total_vehicles if cfg.total_vehicles is not None else n
        window = slice(lo, lo + n)
        rng = np.random.default_rng(cfg.seed)

        # Heterogeneous population: cycle x phase x aux x fault x SoC.
        # All attribute draws cover the *global* population and are then
        # sliced, so a shard sees exactly the vehicles the whole-fleet
        # run would give it — the first half of shard-count invariance.
        speeds_per_cycle = [standard_cycle(name).speeds
                            for name in cfg.cycles]
        lengths = np.array([len(s) for s in speeds_per_cycle])
        cycle_all = rng.integers(0, len(cfg.cycles), size=total)
        cycle_idx = cycle_all[window]
        phase = rng.integers(0, lengths[cycle_all])[window]
        aux = rng.choice(np.asarray(_AUX_LOADS_W), size=total)[window]
        faulty = (rng.random(total) < cfg.fault_fraction)[window]
        soc = rng.uniform(self._soc_min, self._soc_max, size=total)[window]
        vehicle_ids = np.arange(lo, lo + n, dtype=np.uint64)

        noise = _sensor_noise(cfg, faulty, steps)
        drive = _DriveTable(speeds_per_cycle, cycle_idx, phase,
                            self._dynamics, self._discretizer, cfg.dt)

        server = self._server
        reference = None
        if server.active_artifact is not None:
            reference = np.array(server.active_artifact.table)
        rollout = server.canary
        canary_mask = (rollout.assign_mask(vehicle_ids)
                       if rollout is not None else np.zeros(n, dtype=bool))
        incumbent_idx = np.flatnonzero(~canary_mask)
        canary_idx = np.flatnonzero(canary_mask)

        # Streaming requires a healthy serving policy: a degraded
        # (fallback) server has no policy_version to attribute records
        # to — the DEGRADED fleet freezes learning ingestion.
        exp_stream = self._experience if reference is not None else None
        stream = exp_stream
        stream_errors = 0
        records_before = exp_stream.written if exp_stream is not None else 0
        shed_records_before = exp_stream.shed if exp_stream is not None else 0
        prev: Optional[dict] = None

        vehicle_reward = np.zeros(n)
        reward_count = 0
        served_total = 0
        interventions = 0
        limp = 0
        shed_before = server.shed_count
        latencies: List[float] = []
        verdict: Optional[str] = None
        trace = (np.zeros((steps, n), dtype=np.intp)
                 if self._record else None)

        start = time.perf_counter()
        for t in range(steps):
            # Faulty vehicles observe a noisy SoC (healthy noise columns
            # are exactly zero, so adding is the same as selecting).
            states = drive.states(t, soc + noise[t])

            # The previous tick's transitions are complete now that
            # their successor states are observed; journal them.
            # Streaming is strictly read-only with respect to serving:
            # a write failure freezes the stream, never the fleet.
            if stream is not None and prev is not None:
                try:
                    stream.offer_batch(
                        prev["states"], prev["actions"], prev["rewards"],
                        states[prev["idx"]], prev["versions"],
                        vehicle_ids[prev["idx"]], step=t - 1)
                    stream.flush()
                except ExperienceError:
                    stream_errors += 1
                    stream = None
            prev = None

            actions = np.full(n, self._zero_action, dtype=np.intp)
            served = np.zeros(n, dtype=bool)
            tick_versions = np.full(n, server.active_version,
                                    dtype=np.int64)

            # Submit the whole tick's requests before pumping once, so
            # the bounded queue sees real depth and deadline pressure.
            pending = {}
            for batch_lo in range(0, len(incumbent_idx), cfg.request_batch):
                chunk = incumbent_idx[batch_lo:batch_lo + cfg.request_batch]
                key = f"{t}:{batch_lo}"
                if not server.submit(states[chunk], key=key):
                    limp += len(chunk)
                    continue
                pending[key] = chunk
            for outcome in server.pump():
                chunk = pending[outcome.key]
                if outcome.shed:
                    limp += len(chunk)
                    continue
                actions[chunk] = outcome.actions
                served[chunk] = True
                latencies.append(outcome.latency_s)

            if len(canary_idx) and server.canary is not None:
                actions[canary_idx] = server.canary_decide(states[canary_idx])
                served[canary_idx] = True
                tick_versions[canary_idx] = \
                    server.canary.candidate_version

            # Safety envelope at the SoC window edges: clamp to the
            # zero-current level and count the intervention.
            current = self._levels[actions]
            clamp = ((soc <= self._soc_min) & (current > 0)) \
                | ((soc >= self._soc_max) & (current < 0))
            interventions += int(np.sum(clamp & served))
            served_total += int(served.sum())
            actions = np.where(clamp, self._zero_action, actions)
            current = self._levels[actions]

            if reference is not None:
                rewards = reference[states, actions]
                srv = served
                # Per-vehicle accumulation is elementwise — order- and
                # grouping-free — so shard aggregation can fsum it back
                # to the exact whole-fleet value.
                vehicle_reward[srv] += rewards[srv]
                reward_count += int(served.sum())
                if server.canary is not None:
                    # The rollout re-evaluates after either group's
                    # batch, so a verdict can land on the incumbent's.
                    inc = served & ~canary_mask
                    can = served & canary_mask
                    if np.any(inc):
                        verdict = server.observe(
                            False, rewards[inc], int(np.sum(clamp & inc)))
                    if np.any(can) and server.canary is not None:
                        verdict = server.observe(
                            True, rewards[can], int(np.sum(clamp & can)))
                    if verdict is not None:
                        # Decided: every vehicle returns to the server's
                        # active policy.
                        canary_mask = np.zeros(n, dtype=bool)
                        incumbent_idx = np.arange(n)
                if stream is not None:
                    # Degradation wiring: faulty-sensor vehicles (the
                    # DEGRADED analogue) are frozen out of the training
                    # stream; limp/shed vehicles were never served, so
                    # LIMP_HOME decisions cannot enter it either.
                    idx = np.flatnonzero(served & ~faulty)
                    if len(idx):
                        prev = {"idx": idx, "states": states[idx],
                                "actions": actions[idx],
                                "rewards": rewards[idx],
                                "versions": tick_versions[idx]}

            soc = np.clip(
                soc - (current + aux / _BUS_VOLTAGE) * cfg.dt
                / self._capacity,
                0.0, 1.0)
            if trace is not None:
                trace[t] = actions
        elapsed = max(time.perf_counter() - start, 1e-9)

        decisions = served_total
        return FleetResult(
            vehicles=n, steps=steps, decisions=decisions,
            shed_requests=server.shed_count - shed_before,
            limp_decisions=limp, interventions=interventions,
            mean_reward=(math.fsum(vehicle_reward) / reward_count
                         if reward_count else 0.0),
            elapsed_s=elapsed,
            decisions_per_sec=decisions / elapsed,
            vehicles_per_min=n * 60.0 / elapsed,
            request_latencies_s=np.asarray(latencies, dtype=float),
            canary_verdict=verdict,
            rollback=(dict(server.last_rollback)
                      if verdict == "rollback" and server.last_rollback
                      else None),
            actions=trace,
            final_soc=soc.copy() if self._record else None,
            vehicle_rewards=vehicle_reward,
            experience_records=(exp_stream.written - records_before
                                if exp_stream is not None else 0),
            experience_shed=(exp_stream.shed - shed_records_before
                             if exp_stream is not None else 0),
            stream_errors=stream_errors)


def run_fleet_sharded(registry_root, config: FleetConfig, shards: int,
                      jobs: Optional[int] = None) -> dict:
    """Split a fleet across fork-isolated workers, one server per shard.

    Every worker opens its own :class:`PolicyServer` over the shared
    registry (``activate_latest`` walks the same degradation ladder),
    drives its contiguous slice of the global population
    (``vehicle_offset``/``total_vehicles``, so population assignment and
    per-vehicle noise are bit-identical to the unsharded run), and
    reports its aggregates; the supervisor's quarantine semantics apply,
    so one crashed shard is a recorded failure, not a lost campaign.
    ``jobs`` workers run at once (default: one per shard).

    Returns the fleet-wide aggregate dict.  ``mean_reward`` is an
    exactly-rounded :func:`math.fsum` over the concatenated per-vehicle
    reward totals in global vehicle order, so (absent shedding, which
    is per-server queue pressure) it is bit-identical for any shard
    count — regression-tested 1 shard vs 4.
    """
    from repro.exec import Supervisor, Task

    if shards < 1:
        raise ServeError("need at least one shard")
    if shards > config.vehicles:
        raise ServeError(
            f"cannot split {config.vehicles} vehicles into {shards} shards")
    if config.total_vehicles is not None or config.vehicle_offset:
        raise ServeError(
            "run_fleet_sharded partitions the whole fleet itself; pass a "
            "config without total_vehicles/vehicle_offset")
    base = config.vehicles // shards
    counts = [base + (1 if i < config.vehicles % shards else 0)
              for i in range(shards)]
    starts = [sum(counts[:i]) for i in range(shards)]

    def _shard(offset: int, count: int) -> dict:
        registry = PolicyRegistry(registry_root)
        server = PolicyServer(registry)
        server.activate_latest()
        shard_cfg = replace(config, vehicles=count, vehicle_offset=offset,
                            total_vehicles=config.vehicles)
        result = FleetSimulator(server, shard_cfg).run()
        return {"decisions": result.decisions,
                "shed_requests": result.shed_requests,
                "limp_decisions": result.limp_decisions,
                "interventions": result.interventions,
                "vehicle_rewards": result.vehicle_rewards,
                "elapsed_s": result.elapsed_s,
                "active_version": server.active_version}

    tasks = [Task(key=f"shard-{i}",
                  fn=(lambda s=s, c=c: _shard(s, c)),
                  spec={"shard": i, "offset": s, "vehicles": c})
             for i, (s, c) in enumerate(zip(starts, counts))]
    supervisor = Supervisor(jobs=jobs or shards)
    sweep = supervisor.run(tasks)
    results = [sweep.results[task.key] for task in tasks
               if task.key in sweep.results]
    if not results:
        raise ServeError("every fleet shard failed; nothing to aggregate")
    total_decisions = sum(r["decisions"] for r in results)
    wall = max(r["elapsed_s"] for r in results)
    total_vehicles = sum(c for t, c in zip(tasks, counts)
                         if t.key in sweep.results)
    # Concatenation in shard order is global vehicle order; fsum is
    # exactly rounded, so the mean is grouping-independent.
    all_rewards = np.concatenate(
        [np.asarray(r["vehicle_rewards"], dtype=float) for r in results])
    return {
        "shards": len(results),
        "vehicles": total_vehicles,
        "decisions": total_decisions,
        "shed_requests": sum(r["shed_requests"] for r in results),
        "limp_decisions": sum(r["limp_decisions"] for r in results),
        "interventions": sum(r["interventions"] for r in results),
        "mean_reward": (math.fsum(all_rewards) / total_decisions
                        if total_decisions else 0.0),
        "elapsed_s": wall,
        "decisions_per_sec": total_decisions / wall,
        "vehicles_per_min": total_vehicles * 60.0 / wall,
        "failures": len(sweep.failures),
    }
