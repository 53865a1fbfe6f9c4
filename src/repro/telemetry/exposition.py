"""Exposition sinks: Prometheus text format and JSONL snapshots.

A registry snapshot leaves the process two ways:

- :func:`to_prometheus_text` / :func:`write_prometheus` -- the Prometheus
  text exposition format (``# HELP`` / ``# TYPE`` headers, cumulative
  ``_bucket``/``_sum``/``_count`` histogram series), written atomically so
  a scraper pointed at the file never reads a torn exposition;
- :class:`JsonlMetricsSink` -- an append-only sequence of registry
  snapshots (one JSON object per flush), republished atomically as a whole
  file so the artifact is always parseable end to end.

:func:`parse_prometheus_text` is the strict counterpart used by CI and the
round-trip tests: it rejects undeclared metrics, out-of-order bucket
bounds, missing ``+Inf`` buckets, and ``_count`` drifting from the
terminal bucket -- the failure modes that silently corrupt dashboards.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Mapping

from ..ioutil import atomic_write_text
from .registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "to_prometheus_text",
    "write_prometheus",
    "parse_prometheus_text",
    "PrometheusParseError",
    "JsonlMetricsSink",
]

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render the whole registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for name, cls, help_text, children in registry.families():
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        if cls is Counter:
            type_name = "counter"
        elif cls is Gauge:
            type_name = "gauge"
        else:
            type_name = "histogram"
        lines.append(f"# TYPE {name} {type_name}")
        for metric in children:
            if cls is Histogram:
                for le, count in metric.cumulative_counts():
                    labels = dict(metric.labels)
                    labels["le"] = "+Inf" if math.isinf(le) else _format_value(le)
                    lines.append(f"{name}_bucket{_format_labels(labels)} {count}")
                lines.append(
                    f"{name}_sum{_format_labels(metric.labels)} {_format_value(metric.sum)}"
                )
                lines.append(
                    f"{name}_count{_format_labels(metric.labels)} {metric.count}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(metric.labels)} {_format_value(metric.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path: str | Path, registry: MetricsRegistry) -> None:
    """Atomically publish the registry as a Prometheus text file."""
    atomic_write_text(path, to_prometheus_text(registry))


# ----------------------------------------------------------------------
# Strict parsing (CI validation and round-trip tests)
# ----------------------------------------------------------------------


class PrometheusParseError(ValueError):
    """The exposition text violates the format (with the offending line)."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        prefix = f"line {line_number}: " if line_number is not None else ""
        super().__init__(f"{prefix}{message}")
        self.line_number = line_number


def _parse_value(raw: str, line_no: int) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        raise PrometheusParseError(f"invalid sample value {raw!r}", line_no) from None


def _unescape_label_value(raw: str, line_no: int) -> str:
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise PrometheusParseError("dangling escape in label value", line_no)
        nxt = raw[i + 1]
        if nxt == "n":
            out.append("\n")
        elif nxt in ('"', "\\"):
            out.append(nxt)
        else:
            raise PrometheusParseError(f"invalid escape \\{nxt} in label value", line_no)
        i += 2
    return "".join(out)


def _strip_suffix(name: str, types: Mapping[str, str]) -> tuple[str, str]:
    """Map a sample name to its (family, role) under the declared types."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            family = name[: -len(suffix)]
            if types[family] == "histogram":
                return family, suffix[1:]
    return name, "value"


def parse_prometheus_text(text: str) -> dict:
    """Strictly parse Prometheus exposition text into a family dict.

    Returns ``{family: {"type": ..., "help": ..., "samples": [...]}}`` where
    each sample is ``(labels_dict, value)`` (histogram samples carry their
    role in the labels under the reserved key ``__role__``). Raises
    :class:`PrometheusParseError` on any structural violation:

    - samples for a family with no preceding ``# TYPE`` declaration;
    - duplicate ``# TYPE`` declarations or duplicate samples;
    - histogram bucket bounds that fail to increase, a missing ``+Inf``
      bucket, non-monotone cumulative counts, or ``_count`` different from
      the ``+Inf`` bucket's value.
    """
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    samples: dict[str, list[tuple[dict, str, float]]] = {}
    seen: set[tuple] = set()

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP ") :].split(" ", 1)
            if not parts or not parts[0]:
                raise PrometheusParseError("malformed HELP line", line_no)
            helps[parts[0]] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE ") :].split(" ")
            if len(parts) != 2:
                raise PrometheusParseError("malformed TYPE line", line_no)
            name, type_name = parts
            if type_name not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise PrometheusParseError(f"unknown metric type {type_name!r}", line_no)
            if name in types:
                raise PrometheusParseError(f"duplicate TYPE for {name!r}", line_no)
            types[name] = type_name
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise PrometheusParseError(f"malformed sample line {line!r}", line_no)
        name = match.group("name")
        labels: dict[str, str] = {}
        label_body = match.group("labels")
        if label_body:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(label_body):
                labels[pair.group(1)] = _unescape_label_value(pair.group(2), line_no)
                consumed += 1
            declared = [p for p in label_body.split(",") if p.strip()]
            if consumed != len(declared):
                raise PrometheusParseError(f"malformed label set {{{label_body}}}", line_no)
        value = _parse_value(match.group("value"), line_no)
        family, role = _strip_suffix(name, types)
        if family not in types:
            raise PrometheusParseError(
                f"sample for {family!r} has no preceding TYPE declaration", line_no
            )
        if types[family] == "histogram" and role == "value":
            raise PrometheusParseError(
                f"histogram {family!r} sample must be _bucket, _sum, or _count", line_no
            )
        identity = (name, tuple(sorted(labels.items())))
        if identity in seen:
            raise PrometheusParseError(f"duplicate sample {name}{labels}", line_no)
        seen.add(identity)
        samples.setdefault(family, []).append((labels, role, value))

    out: dict[str, dict] = {}
    for family, type_name in types.items():
        entries = samples.get(family, [])
        if type_name == "histogram":
            _validate_histogram(family, entries)
        out[family] = {
            "type": type_name,
            "help": helps.get(family, ""),
            "samples": [
                ({**labels, "__role__": role} if role != "value" else dict(labels), value)
                for labels, role, value in entries
            ],
        }
    return out


def _validate_histogram(family: str, entries: list[tuple[dict, str, float]]) -> None:
    by_series: dict[tuple, dict] = {}
    for labels, role, value in entries:
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        series = by_series.setdefault(key, {"buckets": [], "sum": None, "count": None})
        if role == "bucket":
            if "le" not in labels:
                raise PrometheusParseError(f"{family}_bucket sample missing le label")
            le = _parse_value(labels["le"], 0) if labels["le"] != "+Inf" else math.inf
            series["buckets"].append((le, value))
        elif role == "sum":
            series["sum"] = value
        elif role == "count":
            series["count"] = value
    for key, series in by_series.items():
        buckets = series["buckets"]
        if not buckets:
            raise PrometheusParseError(f"histogram {family!r} series {key} has no buckets")
        bounds = [b for b, _ in buckets]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise PrometheusParseError(
                f"histogram {family!r} bucket bounds must strictly increase, got {bounds}"
            )
        if not math.isinf(bounds[-1]):
            raise PrometheusParseError(f"histogram {family!r} is missing the +Inf bucket")
        counts = [c for _, c in buckets]
        if any(c2 < c1 for c1, c2 in zip(counts, counts[1:])):
            raise PrometheusParseError(
                f"histogram {family!r} cumulative bucket counts must be non-decreasing"
            )
        if series["count"] is None or series["sum"] is None:
            raise PrometheusParseError(f"histogram {family!r} is missing _sum or _count")
        if series["count"] != counts[-1]:
            raise PrometheusParseError(
                f"histogram {family!r}: _count {series['count']} != +Inf bucket {counts[-1]}"
            )


# ----------------------------------------------------------------------
# JSONL snapshots
# ----------------------------------------------------------------------


class JsonlMetricsSink:
    """Accumulates registry snapshots and publishes them as one JSONL file.

    Each :meth:`flush` appends one line (``{"step": ..., "metrics": ...}``)
    to the in-memory log and atomically republishes the whole file, so the
    on-disk artifact is always a complete, parseable JSONL document even if
    the process dies between flushes.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lines: list[str] = []

    def flush(self, registry: MetricsRegistry, step: int | None = None) -> None:
        record = {"step": step, "metrics": registry.snapshot()}
        self._lines.append(json.dumps(record, sort_keys=True))
        atomic_write_text(self.path, "\n".join(self._lines) + "\n")

    @staticmethod
    def read(path: str | Path) -> list[dict]:
        """All snapshot records in the file, oldest first."""
        target = Path(path)
        if not target.exists():
            return []
        records = []
        for line in target.read_text().splitlines():
            line = line.strip()
            if line:
                records.append(json.loads(line))
        return records
