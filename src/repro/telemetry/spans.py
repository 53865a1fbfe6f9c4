"""Span-based tracing over the simulator's logical clock.

The runtime executes on *simulated* microseconds, so spans carry explicit
timestamps rather than sampling a wall clock: the tracer keeps a running
trace clock that advances by each iteration's simulated duration, and
every span lands on that timeline. Iteration spans enclose the stage and
kernel spans of the simulated :class:`repro.gpusim.device.IterationResult`
(same ``pid``/``tid`` rows as :func:`repro.gpusim.export.to_chrome_trace`,
so one viewer profile reads both artifacts), and control-plane moments --
replans, drift detections, membership changes -- surface as instant
events.

All event construction goes through :mod:`repro.telemetry.chrome`; this
module only decides *what* to emit and *when*.
"""

from __future__ import annotations

from typing import Any, Mapping

from .chrome import (
    counter_event,
    duration_event,
    instant_event,
    process_metadata_events,
    trace_json,
)

__all__ = ["Tracer", "iteration_span_events", "RUNTIME_PID", "RUNTIME_TID"]

#: The synthetic process row hosting runtime-level (per-iteration) spans.
RUNTIME_PID = 1000
RUNTIME_TID = 0


def iteration_span_events(result, pid: int, t_offset: float = 0.0) -> list[dict]:
    """Duration events for one simulated iteration's stage and kernel spans.

    ``result`` is duck-typed (anything with ``stage_spans`` and
    ``kernel_spans``), so both the simulator's exporter and the runtime
    tracer share this one constructor: training stages land on ``tid 0``,
    preprocessing kernels on ``tid 1``, shifted by ``t_offset`` onto the
    caller's timeline.
    """
    events: list[dict] = []
    for span in result.stage_spans:
        events.append(
            duration_event(
                span.name,
                "training",
                span.t_start + t_offset,
                span.wall_time,
                pid,
                0,
                args={"standalone_us": span.standalone_us, "slowdown": span.slowdown},
            )
        )
    for span in result.kernel_spans:
        events.append(
            duration_event(
                span.name,
                "preprocessing",
                span.t_start + t_offset,
                span.wall_time,
                pid,
                1,
                args={"op": span.tag, "overlapped": span.overlapped},
            )
        )
    return events


class Tracer:
    """Collects trace events on a monotonically advancing simulated clock."""

    def __init__(self) -> None:
        # Recorded events in order. A GPU's repeat of its previous simulated
        # result is kept as a ``(template, t0)`` pair and expanded on read.
        self._events: list[dict | tuple[list[tuple[float, dict]], float]] = []
        self._known_pids: set[int] = set()
        # Per GPU: the last simulated result and its events as
        # ``(span start, event)`` pairs.
        self._templates: dict[int, tuple[object, list[tuple[float, dict]]]] = {}
        self.clock_us = 0.0

    def __len__(self) -> int:
        return sum(len(e[0]) if type(e) is tuple else 1 for e in self._events)

    @property
    def events(self) -> list[dict]:
        """Every recorded event; a repeated iteration's copies differ from
        their template only in ``ts`` (same float sum, same key position).
        Recorded events are never mutated, so the copies share ``args``."""
        out: list[dict] = []
        for item in self._events:
            if type(item) is tuple:
                template, t0 = item
                out.extend({**event, "ts": float(start + t0)} for start, event in template)
            else:
                out.append(item)
        return out

    # ------------------------------------------------------------------

    def ensure_process(
        self, pid: int, name: str, threads: Mapping[int, str] | None = None
    ) -> None:
        """Emit the metadata block for ``pid`` once per tracer lifetime."""
        if pid in self._known_pids:
            return
        self._known_pids.add(pid)
        self._events.extend(process_metadata_events(pid, name, threads))

    def span(
        self,
        name: str,
        cat: str,
        ts: float,
        dur: float,
        pid: int = RUNTIME_PID,
        tid: int = RUNTIME_TID,
        **args: Any,
    ) -> None:
        self._events.append(duration_event(name, cat, ts, dur, pid, tid, args or None))

    def instant(
        self,
        name: str,
        cat: str,
        ts: float | None = None,
        pid: int = RUNTIME_PID,
        tid: int = RUNTIME_TID,
        **args: Any,
    ) -> None:
        self._events.append(
            instant_event(name, cat, self.clock_us if ts is None else ts, pid, tid, args or None)
        )

    def counter(self, name: str, ts: float, pid: int, values: Mapping[str, float]) -> None:
        self._events.append(counter_event(name, ts, pid, values))

    # ------------------------------------------------------------------

    def record_iteration(
        self,
        iteration: int,
        iteration_us: float,
        per_gpu_results=(),
        **args: Any,
    ) -> float:
        """Record one runtime iteration and advance the trace clock.

        Emits the enclosing ``iteration N`` span on the runtime row, then
        nests each GPU's stage/kernel spans (when simulated results are
        available) at the iteration's start offset. Returns the span's
        start timestamp.
        """
        t0 = self.clock_us
        self.ensure_process(RUNTIME_PID, "runtime", {RUNTIME_TID: "iterations"})
        self._events.append(
            duration_event(
                f"iteration {iteration}", "runtime", t0, iteration_us,
                RUNTIME_PID, RUNTIME_TID, dict(args) or None,
            )
        )
        for gpu, result in enumerate(per_gpu_results):
            self.ensure_process(gpu, f"GPU {gpu}", {0: "training", 1: "preprocessing"})
            self._record_gpu(gpu, result, t0)
        self.clock_us = t0 + iteration_us
        return t0

    def _record_gpu(self, gpu: int, result, t0: float) -> None:
        """One GPU's stage and kernel events for ``result`` at offset ``t0``.

        The runtime hands back the same result object for every clean
        iteration of a plan, and the device's memo does for a repeated
        degraded one, so its events are built once; a repeat only records
        the offset.
        """
        template = self._templates.get(gpu)
        if template is not None and template[0] is result:
            self._events.append((template[1], t0))
            return
        events = iteration_span_events(result, gpu, t_offset=t0)
        starts = [span.t_start for span in result.stage_spans]
        starts.extend(span.t_start for span in result.kernel_spans)
        self._templates[gpu] = (result, list(zip(starts, events)))
        self._events.extend(events)

    # ------------------------------------------------------------------

    def to_chrome_trace(self, indent: int | None = None) -> str:
        return trace_json(self.events, indent=indent)

    # Checkpointing: only the clock is control state; events are artifacts
    # of the *current* process and are not replayed across restarts.

    def state_dict(self) -> dict:
        return {"clock_us": self.clock_us}

    def load_state(self, state: dict) -> None:
        self.clock_us = float(state.get("clock_us", 0.0))
