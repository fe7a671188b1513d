"""In-process metrics: counters, gauges, and fixed-bucket histograms.

The registry is the numeric half of the observability layer (events and
spans are the narrative half, :mod:`repro.telemetry.events` and
:mod:`repro.telemetry.tracing`).  Everything is zero-dependency and
allocation-light so the instrumented hot paths stay fast:

* :class:`Counter` — monotonically increasing total (steps simulated,
  guard interventions, supervisor retries).
* :class:`Gauge` — last-written value (final state of charge, current
  health mode).
* :class:`Histogram` — fixed-bucket distribution with constant-memory
  quantile estimation: p50/p99 come from linear interpolation inside the
  bucket that holds the rank, without ever storing samples.  Accuracy is
  bounded by the bucket width (tested against ``numpy.percentile``).

Every metric snapshots to plain JSON-able dicts; the
:class:`repro.telemetry.Telemetry` facade emits one final
``metrics_snapshot`` event into the sink when closed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import TelemetryError


def exponential_buckets(start: float, factor: float,
                        count: int) -> Tuple[float, ...]:
    """``count`` ascending bucket upper bounds: start, start*factor, ..."""
    if start <= 0 or factor <= 1.0 or count < 1:
        raise TelemetryError(
            "exponential buckets need start > 0, factor > 1, count >= 1")
    return tuple(start * factor ** i for i in range(count))


LATENCY_BUCKETS_S = exponential_buckets(1e-6, 2.0, 26)
"""Default wall-clock buckets: 1 µs .. ~33 s, doubling."""


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be >= 0 — counters only go up)."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (got {amount!r}); "
                "use a Gauge for values that move both ways")
        self._value += float(amount)

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def snapshot(self) -> dict:
        """JSON-able state."""
        return {"kind": "counter", "value": self._value}


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value: Optional[float] = None

    def set(self, value: Union[int, float]) -> None:
        """Record the current value."""
        self._value = float(value)

    @property
    def value(self) -> Optional[float]:
        """Last value set (None before the first set)."""
        return self._value

    def snapshot(self) -> dict:
        """JSON-able state."""
        return {"kind": "gauge", "value": self._value}


class Histogram:
    """Fixed-bucket distribution with constant-memory quantiles.

    ``bounds`` are ascending finite bucket *upper* edges; one implicit
    overflow bucket catches everything above the last bound.  Observed
    minimum and maximum tighten the interpolation at the edges, so the
    estimate of any quantile is off by at most one bucket width.
    """

    __slots__ = ("name", "bounds", "_counts", "_count", "_sum", "_min",
                 "_max")

    def __init__(self, name: str, buckets: Sequence[float]):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise TelemetryError(
                f"histogram {name!r} needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise TelemetryError(
                f"histogram {name!r} bucket bounds must be finite "
                "(the overflow bucket is implicit)")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name!r} bucket bounds must be strictly "
                "ascending")
        self.name = name
        self.bounds = bounds
        self._counts: List[int] = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: Union[int, float]) -> None:
        """Record one sample."""
        value = float(value)
        if not math.isfinite(value):
            raise TelemetryError(
                f"histogram {self.name!r} observed a non-finite value "
                f"({value!r})")
        self._counts[bisect_left(self.bounds, value)] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        """Samples observed."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of observed samples."""
        return self._sum

    def mean(self) -> float:
        """Sample mean (NaN when empty)."""
        return self._sum / self._count if self._count else math.nan

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile, ``q`` in [0, 1] (NaN when empty).

        Linear interpolation inside the bucket that contains the rank,
        with the bucket edges clamped to the observed min/max — matching
        ``numpy.percentile``'s default within one bucket width.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must be in [0, 1], got {q!r}")
        if self._count == 0:
            return math.nan
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        rank = q * (self._count - 1)
        cumulative = 0
        for i, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count > rank:
                lo = self.bounds[i - 1] if i > 0 else self._min
                hi = self.bounds[i] if i < len(self.bounds) else self._max
                lo = max(lo, self._min)
                hi = min(hi, self._max)
                if hi < lo:
                    hi = lo
                return lo + (hi - lo) * ((rank - cumulative) / bucket_count)
            cumulative += bucket_count
        return self._max

    def snapshot(self) -> dict:
        """JSON-able state (quantiles precomputed, no raw samples)."""
        empty = self._count == 0
        return {
            "kind": "histogram",
            "count": self._count,
            "sum": self._sum,
            "min": None if empty else self._min,
            "max": None if empty else self._max,
            "p50": None if empty else self.quantile(0.50),
            "p99": None if empty else self.quantile(0.99),
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    A name registers exactly one metric kind; asking for the same name as
    a different kind (or a histogram with different buckets) is a
    :class:`~repro.errors.TelemetryError` — silent shadowing would make
    the snapshot lie.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, kind: type, factory):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TelemetryError(
                    f"metric {name!r} is already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}")
            return existing
        created = factory()
        self._metrics[name] = created
        return created

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """The histogram called ``name``.

        ``buckets`` is required on first use and, when passed again, must
        match the registered bounds exactly.
        """
        existing = self._metrics.get(name)
        if existing is None:
            if buckets is None:
                raise TelemetryError(
                    f"histogram {name!r} does not exist yet; pass its "
                    "bucket bounds on first use")
            return self._get(name, Histogram,
                             lambda: Histogram(name, buckets))
        hist = self._get(name, Histogram, None)
        if buckets is not None and tuple(float(b) for b in buckets) \
                != hist.bounds:
            raise TelemetryError(
                f"histogram {name!r} is already registered with different "
                "bucket bounds")
        return hist

    def names(self) -> Iterable[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, dict]:
        """JSON-able state of every metric, keyed by name."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}
