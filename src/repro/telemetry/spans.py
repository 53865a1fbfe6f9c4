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

from typing import Any, Callable, Iterator, Mapping, NamedTuple

from .chrome import (
    duration_event,
    event_json,
    float_json,
    instant_event,
    process_metadata_events,
    split_at_ts,
    trace_json_chunks,
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


def _span_template(result, pid: int) -> list[tuple[float, dict]]:
    """``result``'s span events at offset 0, each with its span's start."""
    starts = [span.t_start for span in result.stage_spans]
    starts.extend(span.t_start for span in result.kernel_spans)
    return list(zip(starts, iteration_span_events(result, pid)))


class _Spans(NamedTuple):
    """What the trace reads of one simulated result: its span tuples."""

    stage_spans: tuple
    kernel_spans: tuple


class Tracer:
    """Collects trace events on a monotonically advancing simulated clock.

    Control-plane spans, instants, counters and process metadata blocks are
    built when recorded. An iteration is kept as one compact entry, and its
    events are built only when :attr:`events` is read or the trace written.
    """

    def __init__(self) -> None:
        # In recording order: events built when recorded, and one entry per
        # iteration, ``(iteration, t0, iteration_us, args, metadata blocks
        # of the GPUs first seen there or None, *per-GPU spans)``.
        self._items: list[dict | tuple] = []
        self._known_pids: set[int] = set()
        # One :class:`_Spans` per distinct pair of span tuples, keyed on
        # the tuples' ids; the record keeps both alive, so neither id can
        # be reused. A result's other fields are not kept.
        self._spans: dict[tuple[int, int], _Spans] = {}
        self.clock_us = 0.0

    def __len__(self) -> int:
        count = 0
        for item in self._items:
            if type(item) is dict:
                count += 1
                continue
            blocks = item[4]
            count += 1 + sum(len(r.stage_spans) + len(r.kernel_spans) for r in item[5:])
            if blocks:
                count += sum(map(len, blocks.values()))
        return count

    @property
    def events(self) -> list[dict]:
        """Every recorded event. A GPU's repeat of a simulated result is a
        copy of the same span events with only ``ts`` moved (same float sum,
        same key position); the copies share ``args``."""
        out: list[dict] = []
        for item in self._walk(_span_template):
            if type(item) is dict:
                out.append(item)
                continue
            template, t0 = item
            out.extend({**event, "ts": float(start + t0)} for start, event in template)
        return out

    def chrome_trace_chunks(self) -> Iterator[str]:
        """The Chrome trace of :attr:`events` (``indent=2``) in chunks, for streaming to disk.

        Each distinct ``(GPU, result)``'s span events are encoded once;
        a repeat splices its own ``ts`` into the encoded text.
        """
        return trace_json_chunks(self._event_texts())

    def _event_texts(self) -> Iterator[str]:
        def encoded(result, gpu: int) -> list[tuple[float, str, str]]:
            return [
                (start, *split_at_ts(event_json(event)))
                for start, event in _span_template(result, gpu)
            ]

        for item in self._walk(encoded):
            if type(item) is dict:
                yield event_json(item)
                continue
            template, t0 = item
            if template:
                yield ",\n".join(
                    [
                        f"{head}{float_json(float(start + t0))}{tail}"
                        for start, head, tail in template
                    ]
                )

    def _walk(self, template_of: Callable[[Any, int], list]) -> Iterator[dict | tuple[list, float]]:
        """The recording in trace order: every event but the GPU spans as a
        dict, and each GPU's spans of an iteration as ``(template, t0)``,
        where ``template_of(spans, gpu)`` runs once per distinct
        ``(GPU, spans)``."""
        templates: dict[tuple[int, int], list] = {}
        for item in self._items:
            if type(item) is dict:
                yield item
                continue
            iteration, t0, iteration_us, args, blocks, *per_gpu = item
            yield duration_event(
                f"iteration {iteration}", "runtime", t0, iteration_us,
                RUNTIME_PID, RUNTIME_TID, args,
            )
            for gpu, spans in enumerate(per_gpu):
                if blocks and gpu in blocks:
                    yield from blocks[gpu]
                template = templates.get((gpu, id(spans)))
                if template is None:
                    template = templates[gpu, id(spans)] = template_of(spans, gpu)
                yield template, t0

    # ------------------------------------------------------------------

    def ensure_process(
        self, pid: int, name: str, threads: Mapping[int, str] | None = None
    ) -> None:
        """Emit the metadata block for ``pid`` once per tracer lifetime."""
        if pid in self._known_pids:
            return
        self._known_pids.add(pid)
        self._items.extend(process_metadata_events(pid, name, threads))

    def instant(
        self,
        name: str,
        cat: str,
        ts: float | None = None,
        pid: int = RUNTIME_PID,
        tid: int = RUNTIME_TID,
        **args: Any,
    ) -> None:
        self._items.append(
            instant_event(name, cat, self.clock_us if ts is None else ts, pid, tid, args or None)
        )

    # ------------------------------------------------------------------

    def record_iteration(
        self,
        iteration: int,
        iteration_us: float,
        per_gpu_results=(),
        **args: Any,
    ) -> float:
        """Record one runtime iteration and advance the trace clock.

        The iteration's ``iteration N`` span on the runtime row encloses
        each GPU's stage/kernel spans (when simulated results are
        available) at the iteration's start offset. Only each result's span
        tuples are kept, by reference (a device's results are immutable),
        one record per distinct result. Returns the span's start timestamp.
        """
        if iteration_us < 0:
            name = f"iteration {iteration}"
            raise ValueError(f"duration event {name!r} has negative dur {iteration_us}")
        t0 = self.clock_us
        self.ensure_process(RUNTIME_PID, "runtime", {RUNTIME_TID: "iterations"})
        known = self._spans
        spans = []
        for result in per_gpu_results:
            stage_spans, kernel_spans = result.stage_spans, result.kernel_spans
            key = (id(stage_spans), id(kernel_spans))
            record = known.get(key)
            if record is None:
                record = known[key] = _Spans(stage_spans, kernel_spans)
            spans.append(record)
        blocks = None
        for gpu in range(len(spans)):
            if gpu not in self._known_pids:
                # The block goes right before the GPU's first spans.
                self._known_pids.add(gpu)
                if blocks is None:
                    blocks = {}
                blocks[gpu] = process_metadata_events(
                    gpu, f"GPU {gpu}", {0: "training", 1: "preprocessing"}
                )
        self._items.append((iteration, t0, iteration_us, args or None, blocks, *spans))
        self.clock_us = t0 + iteration_us
        return t0

    # ------------------------------------------------------------------
    # Checkpointing: only the clock is control state; events are artifacts
    # of the *current* process and are not replayed across restarts.

    def state_dict(self) -> dict:
        return {"clock_us": self.clock_us}

    def load_state(self, state: dict) -> None:
        self.clock_us = float(state.get("clock_us", 0.0))
