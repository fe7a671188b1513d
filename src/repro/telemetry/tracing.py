"""Span-based tracing with serializable context and fork propagation.

A :class:`Tracer` measures named regions of work with
``time.monotonic()`` and emits one ``span`` record per finished region.
Spans nest: a span started while another is open records that span as its
parent, so an episode span contains its training-run parent and a
supervised task span contains whatever the worker did inside it.

Two nesting disciplines coexist:

* **Stacked spans** (the default) — strictly nested, enforced: ending a
  span that is not the innermost open one raises
  :class:`~repro.errors.TelemetryError`.  This is what the simulator and
  training loop use.
* **Detached spans** (``detached=True``) — parented at start but not
  pushed on the stack, for regions that overlap (the supervisor runs many
  isolated-worker task spans concurrently in one scheduler loop).

**Fork propagation** — a :class:`SpanContext` is three strings, so it
serialises to JSON and crosses process boundaries.  The supervisor passes
the task span's context into each forked worker, where
:func:`set_ambient_context` installs it as the *ambient* parent: any
tracer the worker builds then parents its root spans under the
supervisor's task span and continues the same trace id, stitching the
per-process records into one tree.

Span ids embed the emitting PID, so records appended to a shared event
file by forked workers never collide.
"""

from __future__ import annotations

import os
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.errors import TelemetryError

_ambient: Optional["SpanContext"] = None


def set_ambient_context(context: Optional["SpanContext"]) -> None:
    """Install ``context`` as this process's ambient trace parent.

    Root spans started afterwards (by any tracer without an explicit
    parent) continue ``context``'s trace and parent under its span.  Pass
    ``None`` to clear.  The supervisor's forked workers call this before
    running the task body.
    """
    global _ambient
    _ambient = context


def ambient_context() -> Optional["SpanContext"]:
    """The ambient trace parent installed in this process (or None)."""
    return _ambient


@dataclass(frozen=True)
class SpanContext:
    """The serialisable identity of one span."""

    trace_id: str
    """Id shared by every span of one traced run."""

    span_id: str
    """Unique id of this span (PID-prefixed, fork-safe)."""

    parent_id: Optional[str] = None
    """Span id of the enclosing span (None for a trace root)."""

    def to_json(self) -> dict:
        """JSON-able form (crosses process boundaries verbatim)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SpanContext":
        """Inverse of :meth:`to_json`."""
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        parent_id = data.get("parent_id")
        if not isinstance(trace_id, str) or not trace_id \
                or not isinstance(span_id, str) or not span_id \
                or not (parent_id is None or isinstance(parent_id, str)):
            raise TelemetryError(
                f"malformed span context {dict(data)!r}: needs non-empty "
                "trace_id/span_id strings and an optional parent_id")
        return cls(trace_id=trace_id, span_id=span_id, parent_id=parent_id)


class Span:
    """One open (or finished) traced region."""

    __slots__ = ("name", "context", "attributes", "start_monotonic",
                 "start_wall", "duration", "detached", "finished")

    def __init__(self, name: str, context: SpanContext,
                 attributes: Dict[str, Any], detached: bool):
        self.name = name
        self.context = context
        self.attributes = attributes
        self.detached = detached
        self.start_monotonic = time.monotonic()
        self.start_wall = time.time()
        self.duration: Optional[float] = None
        self.finished = False

    def record(self) -> dict:
        """The finished span as a flat JSON-able record."""
        return {"name": self.name,
                "trace_id": self.context.trace_id,
                "span_id": self.context.span_id,
                "parent_id": self.context.parent_id,
                "start_wall": self.start_wall,
                "duration": self.duration,
                "attributes": dict(self.attributes)}


class Tracer:
    """Builds, nests, and emits spans (see the module docstring).

    ``emit`` receives the flat record of every finished span (the
    :class:`repro.telemetry.Telemetry` facade wires it into the event
    sink).  Its trace continues the ambient context's when one is
    installed; otherwise a fresh trace id is generated.
    """

    def __init__(self, emit: Optional[Callable[[dict], None]] = None):
        self._emit = emit
        self._trace_id: Optional[str] = None
        self._stack: List[Span] = []
        self._serial = 0

    @property
    def trace_id(self) -> str:
        """The trace id new root spans are created under."""
        if self._trace_id is None:
            ambient = ambient_context()
            self._trace_id = (ambient.trace_id if ambient is not None
                              else uuid.uuid4().hex[:16])
        return self._trace_id

    def current_context(self) -> Optional[SpanContext]:
        """Context of the innermost open stacked span (or the ambient
        context, or None)."""
        if self._stack:
            return self._stack[-1].context
        return ambient_context()

    def _next_span_id(self) -> str:
        self._serial += 1
        return f"{os.getpid():x}-{self._serial:06x}"

    def start(self, name: str, detached: bool = False,
              **attributes: Any) -> Span:
        """Open a span under the innermost stacked span, else the ambient
        context; pair with :meth:`end`.

        ``detached=True`` keeps the span off the nesting stack so
        overlapping regions can be traced from one tracer.
        """
        if not name:
            raise TelemetryError("spans need a non-empty name")
        parent = self.current_context()
        context = SpanContext(
            trace_id=parent.trace_id if parent is not None else self.trace_id,
            span_id=self._next_span_id(),
            parent_id=parent.span_id if parent is not None else None)
        span = Span(name, context, dict(attributes), detached)
        if not detached:
            self._stack.append(span)
        return span

    def end(self, span: Span, **attributes: Any) -> dict:
        """Close ``span``, merge ``attributes``, emit and return its
        record."""
        if span.finished:
            raise TelemetryError(f"span {span.name!r} was already ended")
        if not span.detached:
            if not self._stack or self._stack[-1] is not span:
                open_name = self._stack[-1].name if self._stack else "none"
                raise TelemetryError(
                    f"unbalanced span end: {span.name!r} is not the "
                    f"innermost open span (innermost: {open_name!r})")
            self._stack.pop()
        span.duration = time.monotonic() - span.start_monotonic
        span.finished = True
        span.attributes.update(attributes)
        record = span.record()
        if self._emit is not None:
            self._emit(record)
        return record

    @contextmanager
    def span(self, name: str, **attributes: Any):
        """Context manager over :meth:`start`/:meth:`end`."""
        span = self.start(name, **attributes)
        try:
            yield span
        finally:
            self.end(span)
