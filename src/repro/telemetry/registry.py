"""Process-local metrics registry: counters, gauges, histograms.

The runtime, the planner caches, and the CLI all need the same three
primitives a production training service exports: monotonically increasing
counters (iterations, faults, cache hits), point-in-time gauges (plan
epoch, per-op-type calibration corrections), and fixed-bucket histograms
(iteration latency, exposed latency). This module provides them with the
usual registry discipline -- one instance per (name, labels) pair, type
conflicts rejected at registration -- without any dependency on an
external metrics client.

Everything is synchronous and in-process: metrics are read either by the
CLI summary at exit or by the exposition sinks
(:mod:`repro.telemetry.exposition`), which snapshot the registry and write
artifacts through the crash-safe :mod:`repro.ioutil` writers.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from functools import reduce
from operator import add
from typing import Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_US",
    "bucket_counts",
    "metric_key",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Fixed bucket schema for simulated-latency histograms (microseconds).
#: Chosen to straddle everything from a single kernel launch (~5 us) to a
#: multi-second degraded iteration; the +Inf bucket is implicit.
DEFAULT_LATENCY_BUCKETS_US: tuple[float, ...] = (
    10.0,
    50.0,
    100.0,
    500.0,
    1_000.0,
    5_000.0,
    10_000.0,
    50_000.0,
    100_000.0,
    500_000.0,
    1_000_000.0,
)


def metric_key(name: str, labels: Mapping[str, str] | None) -> tuple:
    """The registry's identity for one child: name plus sorted label pairs."""
    if labels is None:
        return (name, ())
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


def _validate(name: str, labels: Mapping[str, str] | None) -> None:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    for label in labels or ():
        if not _LABEL_RE.match(label):
            raise ValueError(f"invalid label name {label!r} on metric {name!r}")


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: Mapping[str, str] | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self._value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: Mapping[str, str] | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)


def bucket_counts(
    buckets: Sequence[float], values: Sequence[float]
) -> tuple[tuple[int, int], ...]:
    """``(slot, count)`` of every bucket slot that ``values`` land in, in slot
    order, the last slot (``len(buckets)``) being +Inf. A value lands in the
    first bucket whose bound it does not exceed; NaN exceeds none, so it
    goes to +Inf as in :meth:`Histogram.observe`."""
    inf_slot = len(buckets)
    counts: dict[int, int] = {}
    for value in values:
        value = float(value)
        slot = bisect_left(buckets, value) if value == value else inf_slot
        counts[slot] = counts.get(slot, 0) + 1
    return tuple(sorted(counts.items()))


class Histogram:
    """Fixed-bucket histogram with cumulative exposition semantics.

    ``buckets`` are the finite upper bounds in strictly increasing order;
    the implicit ``+Inf`` bucket catches everything else. Observations
    update per-bucket counts, the running sum, and the total count --
    exactly the triple the Prometheus text format exposes.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one finite bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase, got {bounds}")
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.name = name
        self.labels = dict(labels or {})
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self._sum += value
        self._count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    def observe_many(
        self, values: Sequence[float], counts: Sequence[tuple[int, int]] | None = None
    ) -> None:
        """:meth:`observe` each value in order: the same sum, bucket counts
        and count. ``counts``, when given, must be
        ``bucket_counts(self.buckets, values)``, so values observed many times
        are bucketed once; the sum still adds one value at a time, since a
        precomputed sum rounds differently."""
        if counts is None:
            counts = bucket_counts(self.buckets, values)
        self._sum = reduce(add, map(float, values), self._sum)
        slots = self._counts
        for slot, n in counts:
            slots[slot] += n
        self._count += len(values)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self._counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + self._counts[-1]))
        return out


class MetricsRegistry:
    """Get-or-create store of metric instruments, keyed by (name, labels).

    Two callers asking for the same counter receive the same object; asking
    for an existing name with a different instrument type (or different
    histogram buckets) is a programming error and raises immediately --
    silent double registration is how dashboards end up lying.
    """

    def __init__(self, default_labels: Mapping[str, str] | None = None) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple, object] = {}
        self._types: dict[str, type] = {}
        self._help: dict[str, str] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}
        # Labels stamped onto every instrument this registry creates. A
        # per-tenant TelemetrySession uses this to put ``tenant=<name>`` on
        # all rap_* families without the runtime knowing about tenancy.
        self.default_labels = {
            str(k): str(v) for k, v in (default_labels or {}).items()
        }
        _validate("rap_default_labels_probe", self.default_labels)

    # ------------------------------------------------------------------

    def _get_or_create(self, cls, name, labels, help_text, **kwargs):
        if self.default_labels:
            merged = dict(self.default_labels)
            merged.update(labels or {})
            labels = merged
        _validate(name, labels)
        key = metric_key(name, labels)
        with self._lock:
            registered = self._types.get(name)
            if registered is not None and registered is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {registered.__name__}, "
                    f"cannot re-register as {cls.__name__}"
                )
            existing = self._metrics.get(key)
            if existing is not None:
                if cls is Histogram and kwargs.get("buckets") is not None:
                    if tuple(kwargs["buckets"]) != existing.buckets:
                        raise ValueError(
                            f"histogram {name!r} already registered with buckets "
                            f"{existing.buckets}"
                        )
                return existing
            if cls is Histogram:
                declared = self._buckets.get(name)
                buckets = kwargs.get("buckets")
                if buckets is None:
                    buckets = declared if declared is not None else DEFAULT_LATENCY_BUCKETS_US
                elif declared is not None and tuple(buckets) != declared:
                    raise ValueError(
                        f"histogram {name!r} already registered with buckets {declared}"
                    )
                metric = Histogram(name, buckets=buckets, labels=labels)
                self._buckets[name] = metric.buckets
            else:
                metric = cls(name, labels=labels)
            self._metrics[key] = metric
            self._types[name] = cls
            if help_text and name not in self._help:
                self._help[name] = help_text
            return metric

    def counter(
        self, name: str, help: str = "", labels: Mapping[str, str] | None = None
    ) -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(
        self, name: str, help: str = "", labels: Mapping[str, str] | None = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] | None = None,
        labels: Mapping[str, str] | None = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, help, buckets=buckets)

    # ------------------------------------------------------------------

    def families(self) -> list[tuple[str, type, str, list]]:
        """Metrics grouped by name: ``(name, type, help, children)``.

        Children are ordered by their label sets for deterministic
        exposition output.
        """
        by_name: dict[str, list] = {}
        with self._lock:
            for (name, _), metric in sorted(self._metrics.items()):
                by_name.setdefault(name, []).append(metric)
            return [
                (name, self._types[name], self._help.get(name, ""), children)
                for name, children in sorted(by_name.items())
            ]

    def snapshot(self) -> dict:
        """A plain-dict view of every metric, suitable for JSON encoding."""
        out: dict[str, list[dict]] = {}
        for name, cls, help_text, children in self.families():
            series = []
            for metric in children:
                entry: dict = {"labels": dict(metric.labels)}
                if cls is Histogram:
                    entry["sum"] = metric.sum
                    entry["count"] = metric.count
                    entry["buckets"] = [
                        {"le": "+Inf" if math.isinf(le) else le, "count": c}
                        for le, c in metric.cumulative_counts()
                    ]
                else:
                    entry["value"] = metric.value
                series.append(entry)
            out[name] = {"type": cls.__name__.lower(), "help": help_text, "series": series}
        return out
