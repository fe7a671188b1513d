"""End-to-end smoke drives (``pytest -m smoke``).

Each smoke drives a whole subsystem through one realistic scenario and
checks the invariants a user would notice if it broke.  They also run with
the tier-1 suite; CI runs them on their own with ``python -m pytest -m
smoke -q``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import default_vehicle
from repro.chaos import FAULT_KINDS, ChaosPlan, run_campaign
from repro.control import RuleBasedController
from repro.control.rl_controller import build_rl_controller
from repro.cycles import DriveCycle, udds
from repro.exec import Supervisor, SweepManifest, Task
from repro.faults.models import AuxLoadSpike, EnginePowerLoss, MotorDerating
from repro.faults.scenarios import Scenario
from repro.faults.schedule import FaultSchedule, ScheduledFault
from repro.powertrain.solver import PowertrainSolver
from repro.rl.persistence import _fingerprint
from repro.safety import SafetySupervisor, SupervisorConfig
from repro.serve import (CanaryConfig, FleetConfig, FleetSimulator,
                         PolicyRegistry, PolicyServer)
from repro.sim import Simulator, evaluate, train

ROLLBACK_BUDGET = 4000
"""Canary decision budget the serving smoke's forced rollback must beat."""

CHAOS_SEEDS = 3
"""Campaign seeds of the chaos smoke (full fault catalog per seed)."""


def severe_scenario() -> Scenario:
    """A catastrophic combined failure striking at t=40 s.

    Deliberately *not* one of the built-in studies: the built-ins model
    survivable degradation, whereas this one exists to prove the
    supervisor's escalation path end to end.
    """
    return Scenario(
        "smoke_catastrophic",
        "simultaneous near-total ICE and EM loss with a stuck heater",
        FaultSchedule([
            ScheduledFault(EnginePowerLoss(power_loss=0.9), start=40.0),
            ScheduledFault(MotorDerating(power_derate=0.9,
                                         torque_derate=0.9),
                           start=40.0, ramp=10.0),
            ScheduledFault(AuxLoadSpike(extra_power=1500.0), start=40.0),
        ]))


@pytest.mark.smoke
def test_guard_limps_home_through_a_severe_fault():
    """The safety supervisor must ride through a severe fault.

    One UDDS episode under a brutal mid-cycle fault — the engine and motor
    both lose most of their rating while an unsheddable auxiliary load
    appears — with hair-trigger monitor thresholds must complete the full
    cycle, escalate out of NOMINAL and finish in LIMP_HOME on the
    rule-based fallback, and keep every trace finite with a nonzero
    corrected MPG.
    """
    solver = PowertrainSolver(default_vehicle())
    simulator = Simulator(solver)
    # Hair-trigger thresholds: the run must escalate within a few seconds
    # of the fault, and must not recover before the cycle ends.
    config = SupervisorConfig(escalate_after=2, recover_after=10_000,
                              infeasible_warn_after=3,
                              infeasible_severe_after=8,
                              soc_warn_after=5, soc_severe_after=30)
    supervisor = SafetySupervisor(RuleBasedController(solver), solver,
                                  config=config)
    result = evaluate(simulator, supervisor, udds(),
                      faults=severe_scenario().schedule)

    report = result.safety
    assert report is not None, "episode result carries no safety report"
    assert not report.halted, "supervisor halted instead of limping home"
    assert report.final_mode == "LIMP_HOME", (
        f"expected the drive to end in LIMP_HOME, got {report.final_mode} "
        f"(time in mode: {report.time_in_mode()})")
    assert report.interventions > 0, "no guard interventions were recorded"
    assert any(t.target == "LIMP_HOME" for t in report.transitions), \
        "no transition into LIMP_HOME was journaled"
    for name, trace in (("fuel_rate", result.fuel_rate),
                        ("soc", result.soc), ("reward", result.reward)):
        assert np.all(np.isfinite(trace)), f"non-finite values in {name}"
    mpg = result.corrected_mpg()
    assert np.isfinite(mpg) and mpg > 0.0, \
        f"limp-home corrected MPG must be positive and finite, got {mpg}"


def _tiny_trained_agent():
    """A quickly but genuinely trained agent (short synthetic cycle)."""
    speeds = np.concatenate([np.linspace(0.0, 12.0, 20),
                             np.linspace(12.0, 0.0, 20)])
    cycle = DriveCycle("smoke-serve", speeds)
    solver = PowertrainSolver(default_vehicle())
    controller = build_rl_controller(solver, seed=7)
    train(Simulator(solver), controller, cycle, episodes=3,
          evaluate_after=False)
    return controller.agent


@pytest.mark.smoke
def test_serving_swaps_refuses_and_rolls_back(tmp_path):
    """The serving layer's headline promises, end to end.

    A tiny trained policy is published to a registry and served over
    the whole state grid.  A hot-swap to a bit-identical republish must
    change no decision; a swap to a candidate with corrupted table bytes
    must be refused with the incumbent untouched; and a canary of a
    deliberately scrambled candidate over a fleet run must end in an
    automatic rollback within the decision budget, with the incumbent
    still serving.
    """
    agent = _tiny_trained_agent()
    registry = PolicyRegistry(tmp_path / "registry")
    registry.publish(agent)          # v1: incumbent
    registry.publish(agent)          # v2: bit-identical swap partner
    registry.publish(agent)          # v3: will be corrupted
    registry.publish_table(          # v4: scrambled canary candidate
        np.zeros_like(agent.learner.qtable.values) - 5.0,
        _fingerprint(agent))

    server = PolicyServer(registry)
    server.activate(registry.load(1))
    grid = np.arange(registry.load(1).num_states)
    baseline = server.decide(grid)

    report = server.swap(version=2)
    assert report.activated, f"identical hot-swap refused: {report.reason}"
    assert np.array_equal(server.decide(grid), baseline), \
        "hot-swap of a bit-identical policy changed decisions"

    blob = bytearray(registry.path_for(3).read_bytes())
    blob[-7] ^= 0x20
    registry.path_for(3).write_bytes(bytes(blob))
    report = server.swap(version=3)
    assert not report.activated, "a corrupt candidate was activated"
    assert np.array_equal(server.decide(grid), baseline), \
        "a refused swap perturbed the incumbent"

    server.begin_canary(version=4, canary_config=CanaryConfig(
        fraction=0.25, min_samples=64, sigmas=2.0,
        decision_budget=ROLLBACK_BUDGET, intervention_margin=0.02))
    result = FleetSimulator(server, FleetConfig(
        vehicles=512, steps=40, seed=2)).run()
    assert result.canary_verdict == "rollback", (
        f"forced canary regression ended in {result.canary_verdict!r}, "
        "not rollback")
    assert result.rollback["decisions"] <= ROLLBACK_BUDGET, (
        f"rollback took {result.rollback['decisions']} decisions, over "
        f"the {ROLLBACK_BUDGET} budget")
    assert server.active_version == 2, \
        f"rollback left v{server.active_version} serving, not the incumbent"


@pytest.mark.smoke
def test_chaos_campaign_holds_every_invariant():
    """A 3-seed chaos campaign over the full fault catalog.

    Torn/corrupt/duplicated/reordered journals, ENOSPC on journal appends
    and table saves, slow I/O, SIGTERM-proof hangs, bit flips and cuts in
    ``.rpa`` table files and a regressed candidate must all be detected,
    every resumable fault recovered, no invariant violated, and every
    seed's fault plan deterministic (``docs/ROBUSTNESS.md``).
    """
    report = run_campaign(seeds=CHAOS_SEEDS)
    rendered = report.render()
    assert report.detection_rate == 1.0, rendered
    assert report.recovery_rate == 1.0, rendered
    assert not report.violations, rendered
    assert report.faults == CHAOS_SEEDS * len(FAULT_KINDS), (
        f"ran {report.faults} faults, expected "
        f"{CHAOS_SEEDS * len(FAULT_KINDS)}")
    for seed in range(CHAOS_SEEDS):
        assert ChaosPlan.generate(seed) == ChaosPlan.generate(seed), \
            f"seed {seed}: fault plan is not deterministic"


def _square_task(key: str, value: int) -> Task:
    return Task(key=key, spec={"kind": "smoke", "key": key},
                fn=lambda: value * value)


def _crash() -> None:
    raise RuntimeError("injected crash")


def _hang() -> None:
    time.sleep(60)


def _supervised_sweep(manifest: SweepManifest):
    supervisor = Supervisor(jobs=2, timeout=2.0, retries=1,
                            manifest=manifest, failure_mode="quarantine")
    tasks = [
        _square_task("alpha", 3),
        Task(key="crash", spec={"kind": "smoke", "key": "crash"}, fn=_crash),
        _square_task("beta", 4),
        Task(key="hang", spec={"kind": "smoke", "key": "hang"}, fn=_hang),
    ]
    return supervisor.run(tasks)


@pytest.mark.smoke
def test_parallel_sweep_quarantines_and_resumes(tmp_path):
    """A 2-worker supervised sweep with injected failures, then a resume.

    Of four tasks, two healthy, one crashing and one hanging past the
    wall-clock timeout, the sweep must quarantine exactly the two bad ones
    with structured failure records after one retry each.  Re-launching it
    with ``resume`` must replay the finished tasks from the manifest and
    reproduce the results.
    """
    path = tmp_path / "smoke.jsonl"
    first = _supervised_sweep(SweepManifest(path))
    assert first.results == {"alpha": 9, "beta": 16}, first.results
    assert sorted(first.quarantined) == ["crash", "hang"], first.quarantined
    kinds = {f.key: f.kind for f in first.failures}
    assert kinds["crash"] == "error", kinds
    assert kinds["hang"] == "timeout", kinds
    attempts = {f.key: f.attempts for f in first.failures}
    assert attempts == {"crash": 2, "hang": 2}, attempts  # 1 retry each
    assert all(f.exception_type == "RuntimeError"
               for f in first.failures if f.key == "crash")
    assert abs(first.coverage - 0.5) < 1e-12

    second = _supervised_sweep(SweepManifest(path, resume=True))
    assert second.results == first.results, second.results
    assert sorted(second.resumed) == ["alpha", "beta"], second.resumed
    assert sorted(second.quarantined) == ["crash", "hang"]
