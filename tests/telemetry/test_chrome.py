"""Chrome trace-event construction, validation, and span generation."""

import json
import math

import pytest

from repro.gpusim import IterationResult
from repro.telemetry import (
    RUNTIME_PID,
    RUNTIME_TID,
    ChromeTraceError,
    Tracer,
    duration_event,
    instant_event,
    iteration_span_events,
    process_metadata_events,
    trace_document,
    trace_json,
    validate_chrome_trace,
)
from repro.telemetry.chrome import event_json, float_json, split_at_ts, trace_json_chunks


class TestEventConstructors:
    def test_duration_event_shape(self):
        ev = duration_event("mlp_fwd", "training", ts=10.0, dur=5.0, pid=0, tid=0)
        assert ev["ph"] == "X"
        assert ev["ts"] == 10.0 and ev["dur"] == 5.0

    def test_process_metadata_names_threads(self):
        events = process_metadata_events(3, "GPU 3", threads={0: "training", 1: "preprocessing"})
        names = {(e["name"], e["args"].get("name")) for e in events}
        assert ("process_name", "GPU 3") in names
        assert ("thread_name", "training") in names
        assert ("thread_name", "preprocessing") in names

    def test_trace_json_is_valid_document(self):
        events = [duration_event("a", "cat", ts=0.0, dur=1.0, pid=0, tid=0)]
        doc = json.loads(trace_json(events))
        validate_chrome_trace(doc)


class TestValidator:
    def test_accepts_document_string(self):
        events = [instant_event("mark", "cat", ts=1.0, pid=0, tid=0)]
        validate_chrome_trace(trace_json(events))

    def test_rejects_missing_required_field(self):
        doc = trace_document([{"ph": "X", "name": "a", "ts": 0.0, "pid": 0, "tid": 0}])
        with pytest.raises(ChromeTraceError):
            validate_chrome_trace(doc)  # duration event without dur

    def test_rejects_negative_duration(self):
        doc = trace_document(
            [duration_event("a", "cat", ts=0.0, dur=1.0, pid=0, tid=0)]
        )
        doc["traceEvents"][0]["dur"] = -1.0
        with pytest.raises(ChromeTraceError):
            validate_chrome_trace(doc)

    def test_rejects_unknown_phase(self):
        doc = trace_document([{"ph": "Z", "name": "a", "ts": 0.0, "pid": 0, "tid": 0}])
        with pytest.raises(ChromeTraceError):
            validate_chrome_trace(doc)

    def test_rejects_non_list_events(self):
        with pytest.raises(ChromeTraceError):
            validate_chrome_trace({"traceEvents": {}})


@pytest.fixture
def iteration_result(device, mlp_stage, emb_stage, small_kernel):
    return device.simulate_iteration([mlp_stage, emb_stage], {0: [small_kernel]})


class TestIterationSpans:
    def test_spans_cover_stages_and_kernels(self, iteration_result):
        events = iteration_span_events(iteration_result, pid=0)
        validate_chrome_trace(trace_document(events))
        train = [e for e in events if e["tid"] == 0]
        prep = [e for e in events if e["tid"] == 1]
        assert len(train) == len(iteration_result.stage_spans)
        assert len(prep) == len(iteration_result.kernel_spans)

    def test_offset_shifts_timestamps(self, iteration_result):
        base = iteration_span_events(iteration_result, pid=0)
        shifted = iteration_span_events(iteration_result, pid=0, t_offset=1000.0)
        assert [e["ts"] + 1000.0 for e in base] == [e["ts"] for e in shifted]


class TestTracer:
    def test_tracer_output_validates(self):
        tracer = Tracer()
        tracer.ensure_process(0, "GPU 0", threads={0: "training"})
        tracer.span("stage", "training", ts=0.0, dur=10.0, pid=0, tid=0)
        tracer.instant("replan (drift)", "runtime", plan_epoch=1)
        validate_chrome_trace(tracer.to_chrome_trace())

    def test_clock_state_round_trips(self):
        a = Tracer()
        a.span("s", "c", ts=0.0, dur=5.0, pid=0, tid=0)
        state = a.state_dict()
        b = Tracer()
        b.load_state(state)
        assert b.state_dict() == state

    def test_negative_iteration_is_refused_when_recorded(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="'iteration 3' has negative dur -1.0"):
            tracer.record_iteration(3, -1.0)
        assert len(tracer) == 0 and tracer.clock_us == 0.0


class EagerTracer:
    """The reference: builds every event when it is recorded."""

    def __init__(self):
        self.events = []
        self.known = set()
        self.clock_us = 0.0

    def ensure_process(self, pid, name, threads=None):
        if pid not in self.known:
            self.known.add(pid)
            self.events.extend(process_metadata_events(pid, name, threads))

    def instant(self, name, cat, **args):
        self.events.append(
            instant_event(name, cat, self.clock_us, RUNTIME_PID, RUNTIME_TID, args or None)
        )

    def record_iteration(self, iteration, iteration_us, per_gpu_results=(), **args):
        t0 = self.clock_us
        self.ensure_process(RUNTIME_PID, "runtime", {RUNTIME_TID: "iterations"})
        self.events.append(
            duration_event(
                f"iteration {iteration}", "runtime", t0, iteration_us,
                RUNTIME_PID, RUNTIME_TID, args or None,
            )
        )
        for gpu, result in enumerate(per_gpu_results):
            self.ensure_process(gpu, f"GPU {gpu}", {0: "training", 1: "preprocessing"})
            self.events.extend(iteration_span_events(result, gpu, t_offset=t0))
        self.clock_us = t0 + iteration_us


class TestCompactRecording:
    """The tracer keeps one entry per iteration and builds its events on
    read; events, count and trace.json text equal an eager recording's."""

    @pytest.fixture
    def recorded(self, device, mlp_stage, emb_stage, small_kernel, big_kernel):
        a = device.simulate_iteration([mlp_stage, emb_stage], {0: [small_kernel]})
        b = device.simulate_iteration([emb_stage, mlp_stage], {1: [big_kernel, small_kernel]})
        empty = IterationResult(0.0, 0.0, 0.0)
        tracer, reference = Tracer(), EagerTracer()
        for sink in (tracer, reference):
            # GPU 1 is named before any iteration, so no iteration names it.
            sink.ensure_process(1, "GPU 1", {0: "training"})
            sink.record_iteration(0, 1234.567, [a], plan_epoch=0)
            sink.instant("replan (drift)", "runtime", plan_epoch=1)
            # GPU 2 is new here: its block goes right before its spans.
            sink.record_iteration(1, 0.1, [a, b, a], plan_epoch=1, num_faults=2)
            sink.record_iteration(2, 1e-3, [b, b, empty], plan_epoch=1)
            sink.record_iteration(3, 250.0, regime="cpu-only")
            sink.record_iteration(4, 3.3, (r for r in (a, a, a, b)))
            sink.record_iteration(5, 0.0, [a])
        return tracer, reference

    def test_events_equal_the_eager_recording(self, recorded):
        tracer, reference = recorded
        assert tracer.events == reference.events
        assert len(tracer) == len(reference.events)
        assert tracer.clock_us == reference.clock_us

    def test_metadata_block_comes_right_before_the_gpus_first_spans(self, recorded):
        tracer, _ = recorded
        rows = [(e["name"], e["pid"]) for e in tracer.events]
        assert [pid for name, pid in rows if name == "process_name"] == [1, RUNTIME_PID, 0, 2, 3]
        for gpu in (0, 2, 3):
            start = rows.index(("process_name", gpu))
            assert all(pid != gpu for _, pid in rows[:start])
            # After the iteration span or the previous GPU's spans; its own
            # spans follow the four-event block.
            assert rows[start - 1][1] == (RUNTIME_PID if gpu == 0 else gpu - 1)
            assert rows[start + 4] == (rows[start + 4][0], gpu)
            assert rows[start + 4][0] != "thread_name"

    def test_streamed_trace_is_byte_identical(self, recorded):
        tracer, reference = recorded
        expected = json.dumps(trace_document(reference.events), indent=2)
        assert "".join(tracer.chrome_trace_chunks()) == expected
        assert tracer.to_chrome_trace(indent=2) == expected
        validate_chrome_trace(expected)

    def test_empty_and_control_plane_only_traces_stream_identically(self):
        tracer = Tracer()
        assert "".join(tracer.chrome_trace_chunks()) == trace_json([], indent=2)
        tracer.instant("replan (drift)", "runtime", plan_epoch=1)
        tracer.counter("util", 5.0, 0, {"sm": 0.5})
        assert "".join(tracer.chrome_trace_chunks()) == trace_json(tracer.events, indent=2)


class TestStreamingEncoder:
    @pytest.mark.parametrize(
        "ts", [0.0, -0.0, 1.5, 0.1 + 0.2, 1e16, 1e-7, math.inf, -math.inf, math.nan]
    )
    def test_spliced_ts_matches_json_dumps(self, ts):
        # A name that mimics the ts key and an args key named ts stay
        # inside their string and their deeper indentation.
        event = duration_event(
            'odd\n      "ts": 1,"ü', "training", 7.25, 3.0, 0, 1,
            args={"ts": 2.0, "nested": {"ts": [1, 2]}},
        )
        head, tail = split_at_ts(event_json(event))
        expected = json.dumps(trace_document([{**event, "ts": ts}]), indent=2)
        assert "".join(trace_json_chunks([head + float_json(ts) + tail])) == expected
