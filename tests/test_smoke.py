"""End-to-end smoke drives (``pytest -m smoke``).

Each smoke drives a whole subsystem through one realistic scenario and
checks the invariants a user would notice if it broke.  They also run with
the tier-1 suite; CI runs them once, in their own step (``python -m pytest
-m smoke -q``), and deselects them from its tier-1 step.
"""

from __future__ import annotations

import math
import time
from unittest import mock

import numpy as np
import pytest

from repro import default_vehicle
from repro.chaos import FAULT_KINDS, ChaosPlan, run_campaign
from repro.control import RuleBasedController
from repro.control.rl_controller import build_rl_controller
from repro.cycles import DriveCycle, standard_cycle
from repro.exec import Supervisor, SweepManifest, Task
from repro.faults.models import AuxLoadSpike, EnginePowerLoss, MotorDerating
from repro.faults.scenarios import Scenario
from repro.faults.schedule import FaultSchedule, ScheduledFault
from repro.learn import (ExperienceStream, OnlineLearner, OnlineLearningLoop,
                         PromotionPipeline)
from repro.powertrain.solver import PowertrainSolver
from repro.rl.persistence import _fingerprint
from repro.safety import SafetySupervisor, SupervisorConfig
from repro.serve import (CanaryConfig, FleetConfig, FleetSimulator,
                         PolicyRegistry, PolicyServer)
from repro.sim import Simulator, evaluate, train
from repro.telemetry import Telemetry, read_events, summarize

ROLLBACK_BUDGET = 4000
"""Canary decision budget the forced rollbacks of the serving and online
smokes must beat."""

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


HAIR_TRIGGER = SupervisorConfig(escalate_after=2, recover_after=10_000,
                                infeasible_warn_after=3,
                                infeasible_severe_after=8,
                                soc_warn_after=5, soc_severe_after=30)
"""Monitor thresholds under which a severe fault escalates within a few
seconds and the run does not recover before the cycle ends."""


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
    supervisor = SafetySupervisor(RuleBasedController(solver), solver,
                                  config=HAIR_TRIGGER)
    result = evaluate(simulator, supervisor, standard_cycle("UDDS"),
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


@pytest.mark.smoke
def test_telemetry_records_a_guarded_faulted_drive(tmp_path):
    """Telemetry captures a guarded, faulted drive and a sweep end to end.

    One UDDS episode under the severe fault with hair-trigger thresholds,
    so that guard interventions and a health transition are sure to
    happen, plus a two-task supervised sweep, all with one telemetry
    session writing to a JSONL file.  Every record of the file must pass
    schema validation; the file must tell the expected story
    (``sim.episode`` and ``exec.sweep`` spans, episode, step and task
    events, guard interventions, a health transition and a closing
    metrics snapshot); and it must render as ``repro telemetry report``.
    """
    path = tmp_path / "smoke.jsonl"
    with Telemetry(path) as telemetry:
        solver = PowertrainSolver(default_vehicle())
        simulator = Simulator(solver, telemetry=telemetry)
        supervisor = SafetySupervisor(RuleBasedController(solver), solver,
                                      config=HAIR_TRIGGER,
                                      telemetry=telemetry)
        result = evaluate(simulator, supervisor, standard_cycle("UDDS"),
                          faults=severe_scenario().schedule)
        executor = Supervisor(retries=0, telemetry=telemetry)
        sweep = executor.run([
            Task(key="probe-1", fn=lambda: 1, spec={"probe": 1}),
            Task(key="probe-2", fn=lambda: 2, spec={"probe": 2}),
        ])

    # read_events re-validates the schema of every record.
    records = read_events(path)
    types = {record["type"] for record in records}
    spans = [r["name"] for r in records if r["type"] == "span"]

    assert result.safety is not None, "no safety report attached"
    assert sweep.results == {"probe-1": 1, "probe-2": 2}, \
        f"unexpected sweep results: {sweep.results}"
    for expected in ("telemetry", "episode", "step", "task",
                     "guard_intervention", "health_transition",
                     "metrics_snapshot"):
        assert expected in types, \
            f"event file is missing {expected!r} records (got {types})"
    assert "sim.episode" in spans, f"no sim.episode span in {spans}"
    assert "exec.sweep" in spans, f"no exec.sweep span in {spans}"
    assert spans.count("exec.task") == 2, \
        f"expected 2 exec.task spans, got {spans.count('exec.task')}"

    report = summarize(path)
    for needle in ("telemetry report:", "sim.episode",
                   "supervised tasks: 2 (ok=2)"):
        assert needle in report, \
            f"rendered report is missing {needle!r}:\n{report}"


@pytest.fixture(scope="module")
def tiny_agent():
    """A quickly but genuinely trained agent (short synthetic cycle)."""
    speeds = np.concatenate([np.linspace(0.0, 12.0, 20),
                             np.linspace(12.0, 0.0, 20)])
    cycle = DriveCycle("smoke", speeds)
    solver = PowertrainSolver(default_vehicle())
    controller = build_rl_controller(solver, seed=7)
    train(Simulator(solver), controller, cycle, episodes=3,
          evaluate_after=False)
    return controller.agent


@pytest.mark.smoke
def test_serving_swaps_refuses_and_rolls_back(tmp_path, tiny_agent):
    """The serving layer's headline promises, end to end.

    A tiny trained policy is published to a registry and served over
    the whole state grid.  A hot-swap to a bit-identical republish must
    change no decision; a swap to a candidate with corrupted table bytes
    must be refused with the incumbent untouched; and a canary of a
    deliberately scrambled candidate over a fleet run must end in an
    automatic rollback within the decision budget, with the incumbent
    still serving.
    """
    agent = tiny_agent
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
def test_online_loop_streams_ingests_and_promotes(tmp_path, tiny_agent):
    """Two fleet rounds of the online-learning loop, without loss.

    Fleet rounds stream experience into crash-safe journals, the learner
    ingests every streamed record and quarantines none of them, and the
    second round runs a guarded promotion whose outcome is one a healthy
    candidate can have.
    """
    registry = PolicyRegistry(tmp_path / "registry")
    registry.publish(tiny_agent)
    config = FleetConfig(vehicles=48, steps=10, seed=3)
    with OnlineLearningLoop(registry, tmp_path / "loop", fleet_config=config,
                            promote_every=2) as loop:
        report = loop.run(2)
    streamed = sum(r.records_streamed for r in report.rounds)
    ingested = sum(r.records_ingested for r in report.rounds)
    quarantined = sum(r.quarantined for r in report.rounds)
    assert streamed and ingested == streamed, (
        f"loop streamed {streamed} records but ingested {ingested}; the "
        "journal pipeline is lossy")
    assert not quarantined, (
        f"a healthy loop quarantined {quarantined} of its own records")
    promotion = report.rounds[1].promotion
    assert promotion is not None, "round 2 ran no guarded promotion"
    assert promotion.outcome in ("promoted", "noop", "aborted"), (
        f"a healthy candidate came out {promotion.outcome!r}")


@pytest.mark.smoke
def test_online_loop_learns_past_an_overflowing_shard(tmp_path, tiny_agent):
    """A journal shard whose rewards would overflow costs only its batch.

    Before the loop starts, a second shard holds one batch of 60 rewards
    of 1.7e308, all on one state-action pair (its writer skipped the
    reward bound; applied, they overflow that Q-value to NaN), and one
    sound batch.  The loop must quarantine the first, apply the second,
    and keep learning from its fleet, again after a resume: no round
    re-reads the bad batch, and the table stays finite.
    """
    registry = PolicyRegistry(tmp_path / "registry")
    registry.publish(tiny_agent)
    num_states, num_actions = tiny_agent.learner.qtable.values.shape
    rng = np.random.default_rng(11)
    zeros = np.zeros(60, dtype=int)
    sound = 20
    with mock.patch("repro.learn.journal.VALUE_BOUND", math.inf), \
            ExperienceStream(tmp_path / "loop" / "journals",
                             shard=1) as stream:
        stream.offer_batch(zeros, zeros, np.full(60, 1.7e308), zeros,
                           zeros + 1, np.arange(60), step=0)
        stream.offer_batch(rng.integers(num_states, size=sound),
                           rng.integers(num_actions, size=sound),
                           rng.normal(size=sound),
                           rng.integers(num_states, size=sound),
                           np.ones(sound, dtype=int), np.arange(sound),
                           step=1)
        stream.flush()

    config = FleetConfig(vehicles=32, steps=10, seed=3)
    with OnlineLearningLoop(registry, tmp_path / "loop", fleet_config=config,
                            promote_every=2) as loop:
        first = loop.run(2).rounds
    with OnlineLearningLoop(registry, tmp_path / "loop", fleet_config=config,
                            promote_every=2, resume=True) as loop:
        resumed = loop.run(1).rounds
        table = loop.learner.table
    rounds = first + resumed
    assert [r.quarantined for r in rounds] == [1, 0, 0], (
        f"the overflowing batch was quarantined "
        f"{[r.quarantined for r in rounds]} times per round, not once")
    assert [r.records_ingested - r.records_streamed for r in rounds] \
        == [sound, 0, 0], "the sound batch or fleet records went missing"
    assert all(r.records_streamed for r in rounds), \
        "a round after the overflowing shard streamed nothing"
    assert np.isfinite(table).all(), "the learner's table went non-finite"


def _burst(rng, directory, count, start, num_states, num_actions):
    """Journal ``count`` random records, offered as batches of up to 10."""
    ids = np.arange(start, start + count)
    columns = (rng.integers(num_states, size=count),
               rng.integers(num_actions, size=count),
               rng.normal(size=count),
               rng.integers(num_states, size=count),
               np.ones(count, dtype=int), ids)
    with ExperienceStream(directory) as stream:
        for lo in range(0, count, 10):
            stream.offer_batch(*(c[lo:lo + 10] for c in columns),
                               step=int(ids[lo]) // 10)
        stream.flush()
        return stream.path


@pytest.mark.smoke
def test_online_learner_resumes_bit_identically_through_corruption(
        tmp_path, tiny_agent):
    """Kill-and-resume equals an uninterrupted learner, byte for byte.

    One journal is written in two bursts with a corrupt batch line and a
    torn line injected between them.  A learner that ingests the first
    burst, is dropped, and resumes from its checkpoint for the second
    must amputate the torn line, quarantine the corrupt one, count both,
    and reach the table of a learner that ingested the clean records in
    one go.
    """
    table = np.asarray(tiny_agent.learner.qtable.values, dtype=np.float64)
    fingerprint = _fingerprint(tiny_agent)
    shape = table.shape

    rng = np.random.default_rng(5)
    live = tmp_path / "live"
    path = _burst(rng, live, 40, 0, *shape)
    batch_line = path.read_bytes().splitlines()[1]
    with open(path, "ab") as fh:
        fh.write(b'{"not": "a batch"}\n')           # quarantined
        fh.write(batch_line[:9])                     # torn
    ckpt = tmp_path / "ckpt.rpa"
    learner = OnlineLearner(fingerprint, table, checkpoint_path=ckpt)
    with pytest.warns(RuntimeWarning):
        first = learner.ingest(live)
    del learner                                      # the "crash"
    _burst(rng, live, 25, 40, *shape)
    resumed = OnlineLearner.resume(ckpt)
    second = resumed.ingest(live)

    rng = np.random.default_rng(5)
    _burst(rng, tmp_path / "ref", 40, 0, *shape)
    _burst(rng, tmp_path / "ref", 25, 40, *shape)
    reference = OnlineLearner(fingerprint, table)
    ref_report = reference.ingest(tmp_path / "ref")

    assert first.quarantined == 1 and first.amputated_bytes == 9, (
        f"injected corruption was miscounted: {first.quarantined} lines "
        f"quarantined, {first.amputated_bytes} bytes amputated")
    assert second.records == 25 and ref_report.records == 65, (
        f"resume consumed {second.records} records (want 25), the "
        f"reference {ref_report.records} (want 65)")
    assert resumed.table.tobytes() == reference.table.tobytes(), (
        "kill-and-resume table differs from the uninterrupted run")


@pytest.mark.smoke
def test_online_promotion_rolls_back_a_poisoned_candidate(tmp_path,
                                                          tiny_agent):
    """A negated candidate is caught by the canary and rolled back.

    The promotion pipeline must end in an automatic canary rollback, with
    the incumbent verified bit-identical, the regression-recovery latency
    recorded, and serving unchanged across the rollback.
    """
    # A briefly-trained table is near-zero, so its negation ties back to
    # the same greedy actions; scramble it (as the perfbench drill does)
    # so the poisoned candidate's regression is decisive.
    table = np.random.default_rng(11).normal(
        size=tiny_agent.learner.qtable.values.shape)
    fingerprint = _fingerprint(tiny_agent)
    registry = PolicyRegistry(tmp_path / "registry")
    registry.publish_table(table, fingerprint)
    poisoned = registry.publish_table(-table, fingerprint)
    server = PolicyServer(registry)
    server.activate(registry.load(1))
    probe = np.arange(min(96, server.active_artifact.num_states))
    before = server.decide(probe)
    pipeline = PromotionPipeline(
        server, registry,
        fleet_config=FleetConfig(vehicles=192, steps=30, seed=2),
        canary_config=CanaryConfig(fraction=0.25, min_samples=48,
                                   sigmas=2.0,
                                   decision_budget=ROLLBACK_BUDGET,
                                   intervention_margin=0.02),
        max_rounds=6, round_steps=15)
    report = pipeline.promote(poisoned)
    assert report.outcome == "rolled_back", (
        f"poisoned candidate came out {report.outcome!r} ({report.reason}), "
        "not rolled_back")
    assert report.incumbent_intact is True, (
        "rollback could not verify the incumbent bit-identical")
    assert report.recovery_s is not None and report.recovery_s >= 0.0, (
        "rollback recorded no regression-recovery latency")
    assert np.array_equal(server.decide(probe), before), (
        "serving changed across the rollback")


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
