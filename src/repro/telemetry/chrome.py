"""Chrome trace-event construction: the single event-emission path.

Both the simulator's iteration export (:mod:`repro.gpusim.export`) and the
runtime span tracer (:mod:`repro.telemetry.spans`) emit the Trace Event
Format consumed by ``chrome://tracing`` / Perfetto. Before this module
each built its event dicts by hand; every event in the repository now
funnels through these constructors, so the format invariants strict
viewers care about (metadata events carrying the reserved ``__metadata``
category and an explicit ``tid``, complete ``X`` events, a top-level
``traceEvents`` array) are enforced in exactly one place.

:func:`validate_chrome_trace` is the strict schema check used by CI and
the round-trip tests. :func:`trace_json_chunks` writes the same bytes as
``trace_json(events, indent=2)`` in chunks, from per-event texts that a
caller may encode once and reuse with a new ``ts``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "duration_event",
    "counter_event",
    "instant_event",
    "metadata_event",
    "process_metadata_events",
    "trace_document",
    "trace_json",
    "trace_json_chunks",
    "event_json",
    "split_at_ts",
    "float_json",
    "validate_chrome_trace",
    "ChromeTraceError",
]

#: The reserved category of metadata (``ph: M``) events.
METADATA_CATEGORY = "__metadata"

_REQUIRED_BY_PHASE = {
    "X": ("name", "cat", "ts", "dur", "pid", "tid"),
    "M": ("name", "cat", "ph", "pid", "tid"),
    "C": ("name", "ts", "pid"),
    "i": ("name", "ts", "pid", "tid"),
}


def duration_event(
    name: str,
    cat: str,
    ts: float,
    dur: float,
    pid: int,
    tid: int,
    args: Mapping[str, Any] | None = None,
) -> dict:
    """A complete (``ph: X``) duration event."""
    if dur < 0:
        raise ValueError(f"duration event {name!r} has negative dur {dur}")
    event = {
        "name": name,
        "cat": cat,
        "ph": "X",
        "ts": float(ts),
        "dur": float(dur),
        "pid": int(pid),
        "tid": int(tid),
    }
    if args:
        event["args"] = dict(args)
    return event


def counter_event(
    name: str, ts: float, pid: int, values: Mapping[str, float], cat: str = "utilization"
) -> dict:
    """A counter (``ph: C``) event; ``values`` become the stacked series."""
    return {
        "name": name,
        "cat": cat,
        "ph": "C",
        "ts": float(ts),
        "pid": int(pid),
        "args": {k: float(v) for k, v in values.items()},
    }


def instant_event(
    name: str,
    cat: str,
    ts: float,
    pid: int,
    tid: int,
    args: Mapping[str, Any] | None = None,
    scope: str = "t",
) -> dict:
    """An instant (``ph: i``) event marking a point in time (e.g. a replan)."""
    event = {
        "name": name,
        "cat": cat,
        "ph": "i",
        "ts": float(ts),
        "pid": int(pid),
        "tid": int(tid),
        "s": scope,
    }
    if args:
        event["args"] = dict(args)
    return event


def metadata_event(name: str, pid: int, tid: int, args: Mapping[str, Any]) -> dict:
    """A metadata (``ph: M``) event with the reserved category and a tid."""
    return {
        "name": name,
        "cat": METADATA_CATEGORY,
        "ph": "M",
        "pid": int(pid),
        "tid": int(tid),
        "ts": 0,
        "args": dict(args),
    }


def process_metadata_events(
    pid: int,
    process_name: str,
    threads: Mapping[int, str] | None = None,
    sort_index: int | None = None,
) -> list[dict]:
    """The standard metadata block naming one process and its threads.

    ``process_sort_index`` pins the process row (defaults to ``pid``) so
    strict viewers order rows deterministically regardless of event order.
    """
    events = [
        metadata_event("process_name", pid, 0, {"name": process_name}),
        metadata_event(
            "process_sort_index", pid, 0,
            {"sort_index": pid if sort_index is None else sort_index},
        ),
    ]
    for tid, thread_name in sorted((threads or {}).items()):
        events.append(metadata_event("thread_name", pid, tid, {"name": thread_name}))
    return events


def trace_document(events: list[dict]) -> dict:
    """The top-level Chrome trace JSON object."""
    return {"traceEvents": list(events), "displayTimeUnit": "ms"}


def trace_json(events: list[dict], indent: int | None = None) -> str:
    return json.dumps(trace_document(events), indent=indent)


# ----------------------------------------------------------------------
# Streaming encoder
#
# ``json.dumps(..., indent=2)`` runs the pure-Python encoder and builds one
# string for the whole document. The writer below produces the same bytes
# in chunks, and lets a caller encode a repeated event once and splice in
# only its timestamp.

#: Indentation of one event inside the ``traceEvents`` array at indent 2.
_EVENT_INDENT = "    "
#: The event's own ``ts`` key in ``event_json`` text. Strings carry no raw
#: newline and nested keys sit deeper, so this occurs exactly once.
_TS_KEY = '\n      "ts": '


def event_json(event: Mapping[str, Any]) -> str:
    """``event`` exactly as ``trace_json(..., indent=2)`` writes it."""
    return _EVENT_INDENT + json.dumps(event, indent=2).replace("\n", "\n" + _EVENT_INDENT)


def split_at_ts(text: str) -> tuple[str, str]:
    """``event_json`` text before and after its ``ts`` value.

    Every event constructor here places a key after ``ts``, so the value
    ends at the next comma (a float's text has none).
    """
    start = text.index(_TS_KEY) + len(_TS_KEY)
    return text[:start], text[text.index(",", start):]


def float_json(value: float) -> str:
    """``value`` as ``json.dumps`` writes a float."""
    return repr(value) if math.isfinite(value) else json.dumps(value)


def trace_json_chunks(blocks: Iterable[str]) -> Iterator[str]:
    """``trace_json(events, indent=2)`` in chunks.

    ``blocks`` are the events' ``event_json`` texts in order; a block may
    hold several consecutive events joined by ``",\\n"``, but none is empty.
    """
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None:
        yield '{\n  "traceEvents": [],\n  "displayTimeUnit": "ms"\n}'
        return
    yield '{\n  "traceEvents": [\n'
    yield first
    for block in blocks:
        yield ",\n"
        yield block
    yield '\n  ],\n  "displayTimeUnit": "ms"\n}'


# ----------------------------------------------------------------------
# Strict validation
# ----------------------------------------------------------------------


class ChromeTraceError(ValueError):
    """A trace document violates the Trace Event Format contract."""


def validate_chrome_trace(document: dict | str) -> list[dict]:
    """Strictly validate a Chrome trace document; returns its events.

    Checks the invariants Perfetto's importer relies on: a ``traceEvents``
    array of objects, every event carrying ``ph`` plus the fields its
    phase requires, non-negative durations, metadata events using the
    reserved ``__metadata`` category, and numeric timestamps.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ChromeTraceError(f"trace is not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise ChromeTraceError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ChromeTraceError("trace document must carry a traceEvents array")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ChromeTraceError(f"event {i} is not an object")
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            raise ChromeTraceError(f"event {i} is missing its ph phase")
        required = _REQUIRED_BY_PHASE.get(phase)
        if required is None:
            raise ChromeTraceError(f"event {i} has unsupported phase {phase!r}")
        for field in required:
            if field == "ph":
                continue
            if field not in event:
                raise ChromeTraceError(f"{phase!r} event {i} is missing field {field!r}")
        for field in ("ts", "dur"):
            if field in event and not isinstance(event[field], (int, float)):
                raise ChromeTraceError(f"event {i} field {field!r} must be numeric")
        if event.get("dur", 0) < 0:
            raise ChromeTraceError(f"event {i} has negative duration")
        if phase == "M" and event.get("cat") != METADATA_CATEGORY:
            raise ChromeTraceError(
                f"metadata event {i} must use the reserved {METADATA_CATEGORY!r} category"
            )
        if phase in ("X", "i") and not isinstance(event.get("name"), str):
            raise ChromeTraceError(f"event {i} name must be a string")
    return events
