"""Zero-dependency observability: metrics, tracing, structured events.

The telemetry layer makes a run inspectable after the fact from **one
JSONL file**: episode and task spans (:mod:`repro.telemetry.tracing`),
counters/gauges/fixed-bucket histograms
(:mod:`repro.telemetry.metrics`), and schema-validated structured events
(:mod:`repro.telemetry.events`) all stream into a crash-tolerant
append-only sink.  ``repro telemetry report`` (backed by
:mod:`repro.telemetry.report`) aggregates the file into a run summary.

Instrumented layers: the simulator and training loop
(``sim.episode``/``train.run`` spans, sampled ``step`` events,
reward/SoC/shortfall metrics), the supervised executor (per-task spans
propagated across the fork boundary, retry/timeout/quarantine counters),
and the safety supervisor (guard interventions and health-state
transitions as first-class events).

Telemetry is strictly **opt-in**: every instrumented entry point takes
``telemetry=None`` and a disabled run executes the seed code path
bit-identically (see ``docs/OBSERVABILITY.md`` for the schema, metric
names, and overhead budget).

Quickstart::

    from repro import quick_agent
    from repro.sim import train
    from repro.telemetry import Telemetry

    with Telemetry("run.jsonl") as tel:
        controller, simulator = quick_agent()
        simulator.telemetry = tel          # or Simulator(solver, telemetry=tel)
        train(simulator, controller, cycle, episodes=20)
    # then: python -m repro telemetry report run.jsonl
"""

from repro.telemetry.events import (
    EVENT_SCHEMAS,
    SCHEMA_VERSION,
    EventSink,
    read_events,
    validate_event,
)
from repro.telemetry.logging_bridge import (
    TelemetryLogHandler,
    attach_logging_bridge,
    detach_logging_bridge,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)
from repro.telemetry.report import (
    summarize,
    summarize_events,
    summarize_manifest,
)
from repro.telemetry.runtime import Telemetry
from repro.telemetry.tracing import (
    Span,
    SpanContext,
    Tracer,
    ambient_context,
    set_ambient_context,
)

__all__ = [
    "EVENT_SCHEMAS",
    "SCHEMA_VERSION",
    "EventSink",
    "read_events",
    "validate_event",
    "TelemetryLogHandler",
    "attach_logging_bridge",
    "detach_logging_bridge",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "summarize",
    "summarize_events",
    "summarize_manifest",
    "Telemetry",
    "Span",
    "SpanContext",
    "Tracer",
    "ambient_context",
    "set_ambient_context",
]
