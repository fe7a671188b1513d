"""Chaos-recovery bench: fault detection and recovery-path latency.

Runs a deterministic :func:`repro.chaos.run_campaign` over the full fault
catalog (torn/corrupt/duplicated/reordered journals, ENOSPC on journal
appends and table saves, slow I/O, SIGTERM-proof hangs, bit flips and
cuts in ``.rpa`` table files, a regressed candidate) and reports
the figures of merit the robustness tentpole promises: **100% detection**
across all faults, **100% recovery** across resumable faults, and the
wall-clock cost of the documented recovery paths (p50/p99 from the
campaign's constant-memory telemetry histogram).

Emits ``benchmarks/results/BENCH_chaos_recovery.json`` (schema in
``benchmarks/common.py``; validated by ``tests/test_bench_gates.py``).
Run ``python benchmarks/bench_chaos_recovery.py --baseline`` to also
refresh the committed trajectory baseline ``BENCH_chaos_recovery.json``
at the repo root.  Environment knob: ``REPRO_BENCH_CHAOS_SEEDS``
(default 5 campaign seeds).
"""

from __future__ import annotations

import os
import sys

from repro.chaos import FAULT_KINDS, run_campaign

from benchmarks.common import emit_json, metric, report

_ROOT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_chaos_recovery.json")


def _seeds() -> int:
    return int(os.environ.get("REPRO_BENCH_CHAOS_SEEDS", 5))


def run_bench(write_baseline: bool = False) -> dict:
    """Run the campaign and emit the JSON + rendered table."""
    seeds = _seeds()
    campaign = run_campaign(seeds=seeds)

    latency = campaign.latency
    p50_ms = latency.quantile(0.50) * 1e3 if latency.count else 0.0
    p99_ms = latency.quantile(0.99) * 1e3 if latency.count else 0.0
    mean_ms = latency.mean() * 1e3 if latency.count else 0.0

    metrics = [
        metric("detection_rate", campaign.detection_rate, "fraction"),
        metric("recovery_rate", campaign.recovery_rate, "fraction"),
        metric("recovery_p50_ms", p50_ms, "ms"),
        metric("recovery_p99_ms", p99_ms, "ms"),
        metric("recovery_mean_ms", mean_ms, "ms"),
        metric("faults_injected", campaign.faults, "count"),
        metric("invariant_violations", len(campaign.violations), "count"),
        metric("campaign_seeds", seeds, "count"),
        metric("campaign_elapsed_s", campaign.elapsed_s, "s"),
    ]

    lines = [
        f"Chaos recovery: {seeds} seed(s) x {len(FAULT_KINDS)} fault "
        f"kind(s) = {campaign.faults} injections",
        "",
        campaign.render(),
    ]
    report("chaos_recovery", "\n".join(lines), metrics=metrics)
    if write_baseline:
        emit_json("chaos_recovery", metrics, path=_ROOT_BASELINE)
    return {"campaign": campaign, "metrics": metrics}


def test_chaos_recovery_invariants_hold():
    """The tentpole's acceptance criterion: full detection and recovery."""
    outcome = run_bench()
    campaign = outcome["campaign"]
    assert campaign.clean, (
        f"chaos campaign found broken invariants: "
        f"detection {campaign.detection_rate:.0%}, "
        f"recovery {campaign.recovery_rate:.0%}, "
        f"{len(campaign.violations)} violation(s)")


if __name__ == "__main__":
    result = run_bench(write_baseline="--baseline" in sys.argv[1:])
    campaign = result["campaign"]
    print(f"detection: {campaign.detection_rate:.0%}, "
          f"recovery: {campaign.recovery_rate:.0%}")
