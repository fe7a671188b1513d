"""The :class:`Telemetry` facade: one object per instrumented run.

Bundles the three observability primitives behind a single opt-in handle:

* a :class:`~repro.telemetry.events.EventSink` (the JSONL stream),
* a :class:`~repro.telemetry.metrics.MetricsRegistry` (counters, gauges,
  histograms — snapshotted into the sink on close), and
* a :class:`~repro.telemetry.tracing.Tracer` whose finished spans are
  emitted into the sink as ``span`` events.

Telemetry is **opt-in with a no-op fast path**: every instrumented call
site takes ``telemetry=None`` and guards with a single ``is not None``
branch, so a disabled run executes exactly the seed code path — episode
results stay bit-identical (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Union

from repro.telemetry.events import EventSink
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer

STEP_SAMPLE_EVERY = 50
"""Sampling period of per-step simulator events, in steps (keeps a full
UDDS episode under ~30 step events)."""


class Telemetry:
    """One run's event sink + metrics registry + tracer (see module doc)."""

    def __init__(self, path: Union[str, Path]):
        self.sink = EventSink(path)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(emit=self._emit_span)

    # -- plumbing ----------------------------------------------------------

    def _emit_span(self, record: dict) -> None:
        self.sink.emit("span", **record)

    @property
    def path(self) -> Path:
        """The event file being written."""
        return self.sink.path

    @property
    def run_id(self) -> str:
        """The run id stamped into the header."""
        return self.sink.run_id

    # -- convenience -------------------------------------------------------

    def event(self, type_: str, **fields: Any) -> dict:
        """Emit one validated event (see
        :data:`repro.telemetry.events.EVENT_SCHEMAS`)."""
        return self.sink.emit(type_, **fields)

    def span(self, name: str, **attributes: Any):
        """Context-managed stacked span."""
        return self.tracer.span(name, **attributes)

    def close(self) -> None:
        """Snapshot the metrics into the sink and close it (idempotent)."""
        if self.sink.closed:
            return
        if len(self.metrics):
            self.sink.emit("metrics_snapshot",
                           metrics=self.metrics.snapshot())
        self.sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
