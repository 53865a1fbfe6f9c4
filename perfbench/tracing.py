"""In-memory host-span tracer for the traced benchmark run.

The traced run wraps the public entry points of each layer from here --
nothing under ``src/`` is touched -- and records one span per call: name,
start, duration and nesting depth on its thread. Self time is a span's
duration minus the time its child spans on the same thread cover.
Aggregates (count, total, self) are always complete; individual spans are
kept in memory up to :data:`MAX_SPANS` and written out once, at the end,
as a Chrome trace on a "host" process row.

Spans are recorded in the benchmark process only. Work a layer hands to a
forked helper (the engine's shard workers, the planner's candidate-pricing
pool when a search prices several candidates) shows as the time the
calling span waits for it.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter

MAX_SPANS = 400_000


class Tracer:
    """Span recorder with per-name aggregates and named counters."""

    def __init__(self) -> None:
        self.active = False
        # A forked helper records nothing (its spans would be lost with it)
        # and so never touches a lock another thread may have held.
        os.register_at_fork(after_in_child=self.end)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_ids: dict[int, int] = {}
        # name -> [count, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.origin = perf_counter()

    # -- region control -------------------------------------------------

    def begin(self) -> None:
        """Drop everything recorded so far and start recording."""
        with self._lock:
            self.stats.clear()
            self.counters.clear()
            self.spans.clear()
            self.dropped = 0
            self.origin = perf_counter()
        self._stack()  # the calling thread is thread 0, the one units run on
        self.active = True

    def end(self) -> None:
        self.active = False

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._thread_ids[threading.get_ident()] = len(self._thread_ids)
        return stack

    def enter(self, name: str) -> list | None:
        if not self.active:
            return None
        frame = [name, perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list | None) -> float:
        """Close ``frame``; returns its duration in seconds."""
        if frame is None:
            return 0.0
        end = perf_counter()
        stack = self._stack()
        while stack and stack[-1] is not frame:
            stack.pop()  # a frame abandoned by an exception inside a generator
        if stack:
            stack.pop()
        name, start, child = frame
        dur = end - start
        if stack:
            stack[-1][2] += dur
        tid = self._thread_ids.get(threading.get_ident(), 0)
        with self._lock:
            agg = self.stats.get(name)
            if agg is None:
                agg = self.stats[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, tid, start, dur, len(stack)))
            else:
                self.dropped += 1
        return dur

    def count(self, name: str, amount: float = 1) -> None:
        if self.active:
            with self._lock:
                self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        if self.active:
            with self._lock:
                self.counters[name] = max(self.counters.get(name, value), value)

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``before(args)`` runs ahead of the call and its value is handed to
        ``after(args, result, state, seconds)`` once the call returns.
        """
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            state = before(args) if before is not None else None
            frame = tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = tracer.exit(frame)
            if after is not None:
                after(args, result, state, seconds)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__qualname__ = getattr(original, "__qualname__", attr)
        setattr(owner, attr, wrapper)

    # -- derived numbers ------------------------------------------------

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def covered(self, region_start: float, region_end: float) -> float:
        """Seconds of the region covered by depth-0 spans of the main thread."""
        covered = 0.0
        for name, tid, start, dur, depth in self.spans:
            if tid == 0 and depth == 0:
                lo = max(start, region_start)
                hi = min(start + dur, region_end)
                covered += max(0.0, hi - lo)
        return covered

    def chrome_trace(self) -> dict:
        """Chrome trace document: the spans on one "host" process row."""
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "cat": "__metadata", "args": {"name": "host"}}
        ]
        for tid in sorted({s[1] for s in self.spans} | {0}):
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                 "cat": "__metadata", "args": {"name": "main" if tid == 0 else f"thread {tid}"}}
            )
        for name, tid, start, dur, depth in self.spans:
            events.append(
                {"name": name, "cat": name.split(".", 1)[0], "ph": "X", "pid": 0, "tid": tid,
                 "ts": round((start - self.origin) * 1e6, 3),
                 "dur": round(dur * 1e6, 3), "args": {"depth": depth}}
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _SpanContext:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.frame = None

    def __enter__(self):
        self.frame = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.exit(self.frame)


def instrument(tracer: Tracer) -> None:
    """Wrap the public call of every layer the per-layer split reports."""
    from repro.core.fusion import HorizontalFusionPass
    from repro.core.mapping import RapMapper
    from repro.core.planner import RapPlanner
    from repro.core.scheduler import ResourceAwareScheduler
    from repro.dlrm.training import TrainingWorkload
    from repro.ingest.sources import SyntheticSource
    from repro.milp.branch_and_bound import BranchAndBoundSolver
    from repro.preprocessing.parallel import ParallelEngine
    from repro.runtime.executor import FaultTolerantRuntime
    from repro.telemetry.calibration import DriftDetector, ResidualModel

    # planner
    tracer.wrap(RapPlanner, "plan", "planner.plan")
    tracer.wrap(RapPlanner, "replan", "planner.replan")
    tracer.wrap(RapMapper, "optimize", "planner.mapping")
    tracer.wrap(RapMapper, "evaluate", "planner.evaluate")
    tracer.wrap(ResourceAwareScheduler, "schedule", "planner.schedule")

    def fusion_before(args):
        return args[0].memo_hits

    def fusion_after(args, result, hits_before, seconds):
        fusion_pass, graphs = args[0], args[1]
        if fusion_pass.enabled and graphs:
            tracer.count("planner.fusion_lookups")
            tracer.count("planner.fusion_memo_hits", fusion_pass.memo_hits - hits_before)

    tracer.wrap(HorizontalFusionPass, "run", "planner.fusion", fusion_before, fusion_after)

    # milp
    def solve_before(args):
        cache = args[0].cache
        return cache.stats.hits if cache is not None else None

    def solve_after(args, result, hits_before, seconds):
        solver = args[0]
        tracer.count("milp.lookups")
        if hits_before is not None and solver.cache.stats.hits > hits_before:
            tracer.count("milp.cache_hits")
            return
        tracer.count("milp.solves")
        tracer.count("milp.nodes", result.nodes_explored)
        # The search checks its deadline between nodes, so a solve that ran
        # for the whole limit was stopped by it.
        if seconds >= solver.time_limit_s:
            tracer.count("milp.time_limit_stops")

    tracer.wrap(BranchAndBoundSolver, "solve", "milp.solve", solve_before, solve_after)

    # runtime and gpusim
    tracer.wrap(FaultTolerantRuntime, "run", "runtime.run")
    tracer.wrap(FaultTolerantRuntime, "run_iteration", "runtime.iteration")
    tracer.wrap(TrainingWorkload, "simulate", "gpusim.simulate")

    # calibration
    tracer.wrap(ResidualModel, "correct", "calibration.correct")
    tracer.wrap(ResidualModel, "record", "calibration.record")

    def observe_after(args, result, state, seconds):
        if result is not None:
            tracer.count("calibration.drift_events")

    tracer.wrap(DriftDetector, "observe_iteration", "calibration.observe", after=observe_after)

    # engine and ingest
    def execute_after(args, result, state, seconds):
        tracer.maximum("engine.shm_bytes_peak", args[0].shm_bytes_in_flight())

    tracer.wrap(ParallelEngine, "execute", "engine.execute", after=execute_after)
    tracer.wrap(SyntheticSource, "batch", "ingest.produce")
