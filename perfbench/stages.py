"""One iteration of the train → serve → learn loop, and its checks.

:class:`Rig` holds everything a loop needs, built from the workload and
the seed; :func:`run_iteration` drives one pass of the loop through
:class:`layers.Spans` stage timers and then checks what each stage
produced.  Checks run outside the stage timers, so they cost nothing in
the reported figures.

Stages of one iteration:

* ``train`` — guarded TD(λ) training episodes on a standard cycle,
  starting from a fresh agent;
* ``compile`` — the trained table compiled to a fresh ``.rpa`` registry
  version and activated on a new policy server;
* ``serve`` — a fleet driven against the server, streaming experience
  into a journal;
* ``ingest`` — a warm-started online learner consuming that journal;
* ``promote`` — the learned candidate published and promoted through a
  canary, which must reach the promote verdict;
* ``rollback`` — a forced regression: a negated-table candidate sent
  through the same promotion path against a scrambled incumbent, which
  the canary must roll back with the incumbent intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.control.rl_controller import build_rl_controller
from repro.cycles import standard_cycle
from repro.learn import ExperienceStream, OnlineLearner, PromotionPipeline
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import _fingerprint
from repro.safety import SafetySupervisor
from repro.serve import (CanaryConfig, FleetConfig, FleetSimulator,
                         PolicyRegistry, PolicyServer)
from repro.sim import Simulator, train
from repro.vehicle import default_vehicle

STAGES = ("train", "compile", "serve", "ingest", "promote", "rollback")


@dataclass(frozen=True)
class Workload:
    """How much work each stage of one loop iteration does."""

    cycle: str
    """Standard cycle the agent trains on."""

    repeats: int
    """Times the cycle is driven back to back in one episode."""

    episodes: int
    """Training episodes per iteration."""

    vehicles: int
    """Vehicles in the streamed fleet."""

    steps: int
    """Simulated seconds each streamed vehicle drives."""

    canary_steps: int
    """Simulated seconds of each canary round (same fleet as ``serve``)."""

    canary_rounds: int
    """Canary rounds after which an undecided rollout is aborted."""

    canary: CanaryConfig
    """Canary thresholds and the budget that ends in the promote verdict."""


def _learn_canary(vehicles: int) -> CanaryConfig:
    """The canary ``OnlineLearningLoop`` sizes to its fleet by default."""
    budget = max(16, min(10_000, int(0.1 * vehicles * 20 * 8 * 0.5)))
    return CanaryConfig(fraction=0.1,
                        min_samples=max(2, min(256, budget // 4)),
                        decision_budget=budget)


# Sizes come from the CLI entry points at their defaults; training is cut
# to one episode so an iteration fits a run several times over.
WORKLOADS = {
    # `repro train`: UDDS driven twice per episode (50 episodes cut to 1);
    # the rest of the loop at `repro learn` defaults.
    "train": Workload(cycle="UDDS", repeats=2, episodes=1, vehicles=512,
                      steps=30, canary_steps=20, canary_rounds=8,
                      canary=_learn_canary(512)),
    # `repro learn`: NYCC seed training (5 episodes cut to 1), a 512 x 30
    # streamed fleet, and the loop's fleet-sized canary in 20 s rounds.
    "learn": Workload(cycle="NYCC", repeats=1, episodes=1, vehicles=512,
                      steps=30, canary_steps=20, canary_rounds=8,
                      canary=_learn_canary(512)),
}

# The forced-regression drill, sized as `benchmarks/bench_online.py`
# sizes it: a canary that catches a negated candidate within a few rounds.
_DRILL_CANARY = CanaryConfig(fraction=0.25, min_samples=48, sigmas=2.0,
                             decision_budget=4000, intervention_margin=0.02)
_PROBE_STATES = 128


class Rig:
    """Everything one loop iteration needs before it starts: the set-up."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True)
        self.solver = PowertrainSolver(default_vehicle())
        self.trip = standard_cycle(workload.cycle).repeat(workload.repeats)
        self.controller = build_rl_controller(self.solver, seed=seed)
        self.guarded = SafetySupervisor(self.controller, self.solver)
        self.simulator = Simulator(self.solver)
        self.agent = self.controller.agent
        # The drill's incumbent is scrambled so that the negated
        # candidate's regression is decisive under the reward proxy.
        scrambled = np.random.default_rng(seed).normal(
            size=self.agent.learner.qtable.values.shape)
        fingerprint = _fingerprint(self.agent)
        self.drill = PolicyRegistry(workdir / "drill")
        self.drill_incumbent = self.drill.publish_table(scrambled,
                                                        fingerprint)
        self.drill_poisoned = self.drill.publish_table(-scrambled,
                                                       fingerprint)


def run_iteration(rig: Rig, spans) -> dict:
    """One loop pass; returns its figures and the failed checks."""
    wl = rig.workload
    root = rig.workdir
    failures = []
    agent = rig.agent

    with spans.stage("train"):
        run = train(rig.simulator, rig.guarded, rig.trip,
                    episodes=wl.episodes, evaluate_after=False,
                    seed=rig.seed)
    steps = sum(len(e.reward) for e in run.episodes)
    if steps != wl.episodes * (len(rig.trip) - 1):
        failures.append(f"train: drove {steps} steps")
    if not all(math.isfinite(e.total_reward) for e in run.episodes) \
            or not np.all(np.isfinite(agent.learner.qtable.values)):
        failures.append("train: non-finite reward or Q-value")

    with spans.stage("compile"):
        registry = PolicyRegistry(root / "registry")
        version = registry.publish(agent)
        server = PolicyServer(registry)
        server.activate(registry.load(version))
    incumbent = np.array(server.active_artifact.table)
    if not np.array_equal(incumbent, agent.learner.qtable.values):
        failures.append("compile: artifact table differs from the agent's")

    fleet = FleetConfig(vehicles=wl.vehicles, steps=wl.steps, seed=rig.seed)
    with spans.stage("serve"):
        with ExperienceStream(root / "journals") as stream:
            served = FleetSimulator(server, fleet, experience=stream).run()
    cache_hits, cache_misses = server.cache_hits, server.cache_misses
    if served.decisions != wl.vehicles * wl.steps \
            or served.shed_requests or served.limp_decisions:
        failures.append(f"serve: {served.decisions} decisions, "
                        f"{served.shed_requests} requests shed")
    if served.experience_shed or served.stream_errors \
            or served.experience_records < 1:
        failures.append(f"serve: {served.experience_records} records "
                        f"journaled, {served.experience_shed} shed")

    checkpoint = root / "learner.json"
    with spans.stage("ingest"):
        learner = OnlineLearner.from_artifact(server.active_artifact,
                                              checkpoint_path=checkpoint)
        ingest = learner.ingest(root / "journals")
    if ingest.records != served.experience_records or ingest.quarantined \
            or ingest.excluded or ingest.amputated_bytes:
        failures.append(f"ingest: {ingest.records} of "
                        f"{served.experience_records} records applied, "
                        f"{ingest.quarantined} quarantined")
    resumed = OnlineLearner.resume(checkpoint)
    if not np.array_equal(resumed.table, learner.table) \
            or resumed.ingest(root / "journals").records:
        failures.append("ingest: resume is not exact")

    with spans.stage("promote"):
        candidate = learner.publish(registry)
        pipeline = PromotionPipeline(
            server, registry, fleet_config=fleet, canary_config=wl.canary,
            max_rounds=wl.canary_rounds, round_steps=wl.canary_steps)
        promoted = pipeline.promote(candidate)
    probe = np.arange(min(_PROBE_STATES, incumbent.shape[0]))
    if promoted.outcome != "promoted" \
            or server.active_version != candidate \
            or not np.array_equal(server.decide(probe),
                                  np.argmax(learner.table[probe], axis=1)):
        failures.append(f"promote: candidate {promoted.outcome} "
                        f"({promoted.reason}), serving "
                        f"v{server.active_version}")

    with spans.stage("rollback"):
        drill_server = PolicyServer(rig.drill)
        drill_server.activate(rig.drill.load(rig.drill_incumbent))
        drill = PromotionPipeline(
            drill_server, rig.drill,
            fleet_config=FleetConfig(vehicles=192, steps=30, seed=rig.seed),
            canary_config=_DRILL_CANARY, max_rounds=6, round_steps=15)
        rolled = drill.promote(rig.drill_poisoned)
    if rolled.outcome != "rolled_back" or rolled.incumbent_intact is not True \
            or rolled.recovery_s is None \
            or drill_server.active_version != rig.drill_incumbent:
        failures.append(f"rollback: poisoned candidate {rolled.outcome} "
                        f"({rolled.reason})")

    return {
        "stage_s": {name: spans.stage_s[name] for name in STAGES},
        "train_steps": steps,
        "decisions": served.decisions,
        "records": ingest.records,
        "canary_decisions": promoted.canary_decisions,
        "recovery_s": rolled.recovery_s or 0.0,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "failures": failures,
    }
