"""Online-learning bench: experience throughput and recovery latency.

Measures the two figures of merit of the resilient online-learning loop
(``docs/ONLINE_LEARNING.md``):

* **experience_records_per_sec** — the end-to-end journal pipeline
  (schema-validated batch encode + one atomic ``O_APPEND`` write per
  512-record batch + cursor-exact read + Q-update ingest) over
  ``REPRO_BENCH_ONLINE_RECORDS`` records (default 20000).  Machine-dependent, so gated by
  ``scripts/check_bench_schema.py`` only with ``--absolute``.
* **regression_recovery_p50_ms / p99_ms** — the first-class robustness
  metric: wall-clock from a canary's rollback verdict (detection)
  through the automatic rollback to the *verified-healthy* incumbent
  (digest and probed decisions bit-identical to before the attempt),
  sampled over ``REPRO_BENCH_ONLINE_ROLLBACKS`` forced promotions of a
  negated-table candidate (default 5).  Gated as lower-is-better with
  ``--absolute``.

Emits ``benchmarks/results/BENCH_online.json`` (schema in
``benchmarks/common.py``).  Run ``python benchmarks/bench_online.py
--baseline`` to also refresh the committed baseline
``BENCH_online.json`` at the repo root.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.control.rl_controller import build_rl_controller
from repro.learn import (
    ExperienceStream,
    OnlineLearner,
    PromotionPipeline,
)
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import _fingerprint
from repro.serve import (
    CanaryConfig,
    FleetConfig,
    PolicyRegistry,
    PolicyServer,
)
from repro.vehicle import default_vehicle

from benchmarks.common import SEED, emit_json, metric, report

_ROOT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_online.json")


def _shape() -> tuple:
    return (int(os.environ.get("REPRO_BENCH_ONLINE_RECORDS", 20_000)),
            int(os.environ.get("REPRO_BENCH_ONLINE_ROLLBACKS", 5)))


def _policy() -> tuple:
    solver = PowertrainSolver(default_vehicle())
    agent = build_rl_controller(solver, seed=SEED).agent
    rng = np.random.default_rng(SEED)
    agent.learner.qtable.values[:] = rng.normal(
        size=agent.learner.qtable.values.shape)
    return agent.learner.qtable.values.copy(), _fingerprint(agent)


def _records_per_sec(table: np.ndarray, fingerprint: dict,
                     n_records: int, root: Path) -> tuple:
    """(records/sec, ingested) over append + checkpointed ingest."""
    num_states, num_actions = table.shape
    rng = np.random.default_rng(SEED)
    states = rng.integers(0, num_states, size=n_records)
    actions = rng.integers(0, num_actions, size=n_records)
    rewards = rng.normal(size=n_records)
    next_states = rng.integers(0, num_states, size=n_records)
    learner = OnlineLearner(fingerprint, table,
                            checkpoint_path=root / "ckpt.rpa")
    start = time.perf_counter()
    versions = np.ones(n_records, dtype=np.int64)
    vehicle_ids = np.arange(n_records) % 1024
    with ExperienceStream(root / "journals") as stream:
        for lo in range(0, n_records, 512):
            hi = lo + 512
            stream.offer_batch(states[lo:hi], actions[lo:hi],
                               rewards[lo:hi], next_states[lo:hi],
                               versions[lo:hi], vehicle_ids[lo:hi],
                               step=lo // 1024)
            stream.flush()
    ingest = learner.ingest(root / "journals")
    elapsed = time.perf_counter() - start
    assert ingest.records == n_records, (ingest.records, n_records)
    return n_records / elapsed, ingest.records


def _recovery_samples(table: np.ndarray, fingerprint: dict,
                      rollbacks: int, root: Path) -> np.ndarray:
    """Measured detect -> rollback -> verified-healthy latencies (s)."""
    registry = PolicyRegistry(root / "registry")
    registry.publish_table(table, fingerprint)        # v1: incumbent
    poisoned = registry.publish_table(-table, fingerprint)  # v2: regressed
    samples = []
    for i in range(rollbacks):
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        pipeline = PromotionPipeline(
            server, registry,
            fleet_config=FleetConfig(vehicles=192, steps=30,
                                     seed=SEED + i),
            canary_config=CanaryConfig(fraction=0.25, min_samples=48,
                                       sigmas=2.0, decision_budget=4000,
                                       intervention_margin=0.02),
            max_rounds=6, round_steps=15)
        outcome = pipeline.promote(poisoned)
        assert outcome.outcome == "rolled_back", outcome
        assert outcome.incumbent_intact is True
        samples.append(outcome.recovery_s)
    return np.asarray(samples)


def run_bench(write_baseline: bool = False) -> dict:
    """Run the online-learning bench; emits the JSON + rendered table."""
    n_records, rollbacks = _shape()
    table, fingerprint = _policy()
    with tempfile.TemporaryDirectory() as tmp:
        rate, ingested = _records_per_sec(table, fingerprint, n_records,
                                          Path(tmp) / "throughput")
        recovery_s = _recovery_samples(table, fingerprint, rollbacks,
                                       Path(tmp) / "rollbacks")
    recovery_ms = recovery_s * 1e3

    metrics = [
        metric("experience_records_per_sec", rate, "1/s"),
        metric("experience_records", ingested, "count"),
        metric("regression_recovery_p50_ms",
               float(np.percentile(recovery_ms, 50)), "ms"),
        metric("regression_recovery_p99_ms",
               float(np.percentile(recovery_ms, 99)), "ms"),
        metric("recovery_samples", rollbacks, "count"),
    ]
    lines = [
        f"Online learning: {ingested} records journaled + ingested, "
        f"{rollbacks} forced regression recoveries",
        "",
        f"  experience records/sec   {rate:14,.0f}",
        f"  recovery p50             {np.percentile(recovery_ms, 50):11.1f}"
        " ms",
        f"  recovery p99             {np.percentile(recovery_ms, 99):11.1f}"
        " ms",
    ]
    report("online", "\n".join(lines), metrics=metrics)
    if write_baseline:
        emit_json("online", metrics, path=_ROOT_BASELINE)
    return {"rate": rate, "recovery_ms": recovery_ms}


def test_online_bench_invariants_hold():
    """The loop's figures of merit exist and are sane."""
    os.environ.setdefault("REPRO_BENCH_ONLINE_RECORDS", "4000")
    os.environ.setdefault("REPRO_BENCH_ONLINE_ROLLBACKS", "3")
    outcome = run_bench()
    assert outcome["rate"] > 0
    assert np.all(outcome["recovery_ms"] >= 0.0)
    assert np.percentile(outcome["recovery_ms"], 99) \
        >= np.percentile(outcome["recovery_ms"], 50)


if __name__ == "__main__":
    out = run_bench(write_baseline="--baseline" in sys.argv[1:])
    print(f"experience records/sec: {out['rate']:,.0f}, "
          f"recovery p99: {np.percentile(out['recovery_ms'], 99):.1f} ms")
