#!/usr/bin/env python3
"""Benchmark of the whole train → serve → learn loop.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 55

A run repeats loop iterations (see ``stages.py``) for ``--seconds``.
Each iteration first builds its rig (solver, training cycle, guarded
agent, drill registry); ``setup_s`` is the median of those builds.  The
other figures are each stage's best over the iterations, and ``loop_s``
is the sum of those bests: a shared host slows the program in bursts
that cover a stage more often than a whole iteration, and noise only
adds time, so the fastest reading of each stage is the steadiest one.
Every iteration's outputs are checked; the last line of standard output
is one JSON object with
``correct``, ``attempted`` (stage operations run), ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end figures.  ``--trace 1`` alternates
traced and untraced iterations and reports each layer's share of the
traced loop time (``layers.py``), the share no layer accounts for, and
the tracing overhead measured against the untraced iterations.

The run works in ``.perfbench-work/`` under the checkout and removes it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ITERATIONS = 3

# Every (stage, layer) pair a loop iteration can charge time to; the
# per-layer report lists all of them on every workload.
LAYER_KEYS = (
    "train.predict", "train.kernel", "train.rank", "train.td",
    "train.traces", "train.guard", "train.agent", "train.sim",
    "train.other",
    "compile.compile", "compile.verify", "compile.other",
    "serve.discretise", "serve.queue", "serve.decide", "serve.journal",
    "serve.fleet", "serve.other",
    "ingest.decode", "ingest.update", "ingest.checkpoint", "ingest.other",
    "promote.compile", "promote.stage", "promote.verify",
    "promote.discretise", "promote.queue", "promote.decide",
    "promote.canary", "promote.fleet", "promote.probe", "promote.other",
    "rollback.stage", "rollback.verify", "rollback.discretise",
    "rollback.queue", "rollback.decide", "rollback.canary",
    "rollback.fleet", "rollback.probe", "rollback.other",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _end_to_end(loops: list) -> dict:
    stage = [loop["stage_s"] for loop in loops]
    return {
        "loop_s": _metric(sum(min(s[name] for s in stage)
                              for name in stage[0]), "s"),
        "train_step_us": _metric(min(
            s["train"] / loop["train_steps"] * 1e6
            for s, loop in zip(stage, loops)), "us"),
        "fleet_decisions_per_s": _metric(1.0 / min(
            s["serve"] / loop["decisions"]
            for s, loop in zip(stage, loops)), "1/s"),
        "ingest_records_per_s": _metric(1.0 / min(
            s["ingest"] / loop["records"]
            for s, loop in zip(stage, loops)), "1/s"),
        "promote_s": _metric(min(s["promote"] for s in stage), "s"),
        "recovery_ms": _metric(min(
            loop["recovery_s"] * 1e3 for loop in loops), "ms"),
        "setup_s": _metric(statistics.median(
            loop["setup_s"] for loop in loops), "s"),
    }


def _per_layer(spans, traced: list, untraced: list) -> dict:
    traced_s = sum(sum(loop["stage_s"].values()) for loop in traced)
    metrics = {}
    for key in LAYER_KEYS:
        metrics[f"{key}.share"] = _metric(
            100.0 * spans.self_s.get(key, 0.0) / traced_s, "%")
    unattributed = sum(v for k, v in spans.self_s.items()
                       if k.endswith(".other"))
    metrics["unattributed.share"] = _metric(
        100.0 * unattributed / traced_s, "%")
    traced_loop = statistics.median(
        sum(loop["stage_s"].values()) for loop in traced)
    plain_loop = statistics.median(
        sum(loop["stage_s"].values()) for loop in untraced)
    metrics["loop_traced_s"] = _metric(traced_loop, "s")
    metrics["tracing_overhead_pct"] = _metric(
        100.0 * (traced_loop - plain_loop) / plain_loop, "%")
    every = traced + untraced
    metrics["train.steps"] = _metric(
        statistics.median([l["train_steps"] for l in every]), "count")
    metrics["serve.decisions"] = _metric(
        statistics.median([l["decisions"] for l in every]), "count")
    metrics["ingest.records"] = _metric(
        statistics.median([l["records"] for l in every]), "count")
    metrics["promote.canary_decisions"] = _metric(
        statistics.median([l["canary_decisions"] for l in every]), "count")
    hits = sum(l["cache_hits"] for l in every)
    misses = sum(l["cache_misses"] for l in every)
    metrics["serve.cache_hit_pct"] = _metric(
        100.0 * hits / max(hits + misses, 1), "%")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from layers import Spans
    from stages import STAGES, WORKLOADS, Rig, run_iteration

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    spans = Spans()
    traced, untraced, failures = [], [], []
    index = 0
    try:
        deadline = time.perf_counter() + args.seconds
        while index < MIN_ITERATIONS or time.perf_counter() < deadline:
            start = time.perf_counter()
            rig = Rig(workload, args.seed, base / f"loop-{index}")
            setup_s = time.perf_counter() - start
            if args.trace and index % 2 == 0:
                with spans.traced():
                    loop = run_iteration(rig, spans)
                traced.append(loop)
            else:
                loop = run_iteration(rig, spans)
                untraced.append(loop)
            loop["setup_s"] = setup_s
            shutil.rmtree(rig.workdir)
            failures.extend(f"iteration {index}: {f}"
                            for f in loop["failures"])
            index += 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.parent.rmdir()  # only when no other run is using it

    for failure in failures:
        print(failure, file=sys.stderr)
    if args.trace:
        metrics = _per_layer(spans, traced, untraced)
    else:
        metrics = _end_to_end(untraced)
    print(json.dumps({"correct": not failures,
                      "attempted": index * len(STAGES),
                      "failed": len(failures),
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
