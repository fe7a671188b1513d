"""Bridge stdlib :mod:`logging` records into the telemetry event sink.

The CLI reports its diagnostics through ``logging`` (behind
``--log-level``/``-v``); when telemetry is enabled, WARNING-and-above
records should also survive in the run's event file so a post-mortem
does not depend on having captured stderr.  :func:`attach_logging_bridge`
installs a :class:`TelemetryLogHandler` on a logger;
:func:`detach_logging_bridge` removes it again (the CLI detaches before
closing the sink, so a late log record can never hit a closed file).
"""

from __future__ import annotations

import logging
from typing import Optional


class TelemetryLogHandler(logging.Handler):
    """Forwards log records to a :class:`~repro.telemetry.Telemetry`
    sink as ``log`` events."""

    def __init__(self, telemetry):
        super().__init__(logging.WARNING)
        self.telemetry = telemetry

    def emit(self, record: logging.LogRecord) -> None:
        """Emit one ``log`` event (errors go through
        :meth:`logging.Handler.handleError`, never raise into the
        instrumented code)."""
        try:
            self.telemetry.event("log", level=record.levelname,
                                 logger=record.name,
                                 message=record.getMessage())
        except Exception:
            self.handleError(record)


def attach_logging_bridge(telemetry, logger: Optional[logging.Logger] = None
                          ) -> TelemetryLogHandler:
    """Install (and return) a WARNING-level bridge handler on ``logger``.

    Defaults to the root logger, so WARNING+ records from any module land
    in the sink.  Keep the returned handler to detach it later.
    """
    handler = TelemetryLogHandler(telemetry)
    (logger or logging.getLogger()).addHandler(handler)
    return handler


def detach_logging_bridge(handler: TelemetryLogHandler,
                          logger: Optional[logging.Logger] = None) -> None:
    """Remove a bridge handler installed by :func:`attach_logging_bridge`."""
    (logger or logging.getLogger()).removeHandler(handler)
