#!/usr/bin/env python3
"""CI smoke test: the online-learning loop's headline promises, end to end.

Trains a tiny policy on a short synthetic cycle, publishes it to a
temporary registry, and drives the full resilient-learning story in
well under 5 seconds:

1. **Loop** — fleet rounds stream experience into crash-safe journals,
   the learner ingests every record (quarantine count must be zero),
   and a guarded promotion runs.
2. **Kill-and-resume bit-identity** — a learner checkpointed mid-stream,
   dropped, and resumed must reach the bit-identical table of an
   uninterrupted learner over the same records — even with a torn final
   line and a corrupt interior batch line injected into the journal
   (the torn line amputated, the corrupt one quarantined, both counted).
3. **Forced rollback with measured recovery** — promoting a poisoned
   (negated-table) candidate through the pipeline must end in an
   automatic canary rollback, with the incumbent verified bit-identical
   and the regression-recovery latency recorded.

Exits non-zero naming the first broken promise.  Run from anywhere:
``python scripts/smoke_online.py``.
"""

from __future__ import annotations

import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.control.rl_controller import build_rl_controller  # noqa: E402
from repro.cycles import DriveCycle  # noqa: E402
from repro.learn import (  # noqa: E402
    ExperienceStream,
    OnlineLearner,
    OnlineLearningLoop,
    PromotionPipeline,
)
from repro.powertrain import PowertrainSolver  # noqa: E402
from repro.rl.persistence import _fingerprint  # noqa: E402
from repro.serve import (  # noqa: E402
    CanaryConfig,
    FleetConfig,
    FleetSimulator,
    PolicyRegistry,
    PolicyServer,
)
from repro.sim import Simulator, train  # noqa: E402
from repro.vehicle import default_vehicle  # noqa: E402


def _tiny_trained_agent():
    """A quickly but genuinely trained agent (short synthetic cycle)."""
    speeds = np.concatenate([np.linspace(0.0, 12.0, 20),
                             np.linspace(12.0, 0.0, 20)])
    cycle = DriveCycle("smoke-online", speeds)
    solver = PowertrainSolver(default_vehicle())
    controller = build_rl_controller(solver, seed=7)
    train(Simulator(solver), controller, cycle, episodes=3,
          evaluate_after=False)
    return controller.agent


def _check_loop(registry, workdir, failures):
    config = FleetConfig(vehicles=48, steps=10, seed=3)
    with OnlineLearningLoop(registry, workdir, fleet_config=config,
                            promote_every=2) as loop:
        report = loop.run(2)
    streamed = sum(r.records_streamed for r in report.rounds)
    ingested = sum(r.records_ingested for r in report.rounds)
    quarantined = sum(r.quarantined for r in report.rounds)
    if streamed == 0 or ingested != streamed:
        failures.append(f"loop streamed {streamed} records but ingested "
                        f"{ingested}; the journal pipeline is lossy")
    elif quarantined:
        failures.append(f"a healthy loop quarantined {quarantined} of its "
                        "own records")
    elif report.rounds[1].promotion is None:
        failures.append("round 2 ran no guarded promotion")
    elif report.rounds[1].promotion.outcome not in (
            "promoted", "noop", "aborted"):
        failures.append(f"a healthy candidate came out "
                        f"{report.rounds[1].promotion.outcome!r}")
    else:
        print(f"  loop: {streamed} records streamed+ingested, promotion "
              f"{report.rounds[1].promotion.outcome}, serving "
              f"v{report.final_version}", file=sys.stderr)


def _check_resume(agent, workdir, failures):
    table = np.asarray(agent.learner.qtable.values, dtype=np.float64)
    fingerprint = _fingerprint(agent)
    num_states, num_actions = table.shape
    rng = np.random.default_rng(5)

    def _burst(directory, count, start):
        """``count`` random records, offered as batches of up to 10."""
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

    # One journal, written in two bursts with a torn line and a corrupt
    # batch line injected between them.
    path = _burst(workdir / "live", 40, 0)
    batch_line = path.read_bytes().splitlines()[1]
    with open(path, "ab") as fh:
        fh.write(b'{"not": "a batch"}\n')           # quarantined
        fh.write(batch_line[:9])                     # torn
    ckpt = workdir / "ckpt.rpa"
    learner = OnlineLearner(fingerprint, table, checkpoint_path=ckpt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        first = learner.ingest(workdir / "live")
    del learner                                      # the "crash"
    _burst(workdir / "live", 25, 40)
    resumed = OnlineLearner.resume(ckpt)
    second = resumed.ingest(workdir / "live")

    rng = np.random.default_rng(5)
    ref_path = _burst(workdir / "ref", 40, 0)
    _burst(workdir / "ref", 25, 40)
    reference = OnlineLearner(fingerprint, table)
    ref_report = reference.ingest(workdir / "ref")

    if first.quarantined != 1 or first.amputated_bytes != 9:
        failures.append(
            f"injected corruption was miscounted: {first.quarantined} "
            f"lines quarantined, {first.amputated_bytes} bytes amputated")
    elif second.records != 25 or ref_report.records != 65:
        failures.append(
            f"resume consumed {second.records} records (want 25), the "
            f"reference {ref_report.records} (want 65)")
    elif not np.array_equal(resumed.table, reference.table):
        failures.append("kill-and-resume table differs from the "
                        "uninterrupted run — bit-identity is broken")
    else:
        print("  resume: torn line amputated, 1 line quarantined, "
              "resumed table bit-identical over 65 records",
              file=sys.stderr)


def _check_rollback(agent, workdir, failures):
    # A briefly-trained table is near-zero, so its negation ties back to
    # the same greedy actions; scramble it (as the fleet bench does) so
    # the poisoned candidate's regression is decisive.
    table = np.random.default_rng(11).normal(
        size=agent.learner.qtable.values.shape)
    fingerprint = _fingerprint(agent)
    registry = PolicyRegistry(workdir / "registry")
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
                                   sigmas=2.0, decision_budget=4000,
                                   intervention_margin=0.02),
        max_rounds=6, round_steps=15)
    report = pipeline.promote(poisoned)
    if report.outcome != "rolled_back":
        failures.append(f"poisoned candidate came out {report.outcome!r} "
                        f"({report.reason}), not rolled_back")
    elif report.incumbent_intact is not True:
        failures.append("rollback could not verify the incumbent "
                        "bit-identical")
    elif report.recovery_s is None or report.recovery_s < 0.0:
        failures.append("rollback recorded no regression-recovery latency")
    elif not np.array_equal(server.decide(probe), before):
        failures.append("serving changed across the rollback")
    else:
        print(f"  rollback: poisoned v{poisoned} caught after "
              f"{report.canary_decisions} canary decision(s), recovered "
              f"in {report.recovery_s * 1e3:.1f} ms", file=sys.stderr)


def main() -> int:
    start = time.monotonic()
    failures = []
    agent = _tiny_trained_agent()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        registry = PolicyRegistry(root / "registry")
        registry.publish(agent)
        _check_loop(registry, root / "loop", failures)
        _check_resume(agent, root / "resume", failures)
        _check_rollback(agent, root / "rollback", failures)
    elapsed = time.monotonic() - start
    if failures:
        print("smoke_online: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"smoke_online: OK (loop + kill-and-resume bit-identity + "
          f"forced rollback in {elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
