"""What a degraded iteration builds, and the per-scale placement cache.

A faulted iteration with telemetry off builds no utilization trace and no
calibration sample or batch; with telemetry on, one degraded scale prices
its sample rows and builds its sample batch once, and every iteration at
that scale records the same batch, priced inside the residual model once
the plan is calibrated. The installed plan keeps one drifted placement per
scale, so recovery must get fresh containers to rewrite, and the cached
placement must be dropped whenever its inputs change.
"""

import gc
import tracemalloc

import pytest

from repro.core import RapPlanner
from repro.core.cost_model import CoRunningCostModel
from repro.core.planner import scale_plan_kernels
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.gpusim import TraceSegment, UtilizationTrace
from repro.preprocessing import build_plan
from repro.runtime import (
    FaultEvent,
    FaultInjector,
    FaultSpec,
    FaultTolerantRuntime,
    LatencyWatchdog,
)
from repro.runtime import executor
from repro.runtime.faults import KERNEL_FAILURE, LATENCY_OVERRUN, PLAN_DRIFT
from repro.runtime.ladder import SHARD_RETRY
from repro.runtime.memo import DERIVED_STATE_ENTRIES
from repro.telemetry import CalibrationSample, SampleBatch, TelemetrySession, Tracer
from repro.telemetry import spans

BATCH = 1024
FAULT_MIX = (
    ("kernel_failure", 0.1),
    ("latency_overrun", 0.1),
    ("fused_oom", 0.05),
    ("cpu_pool_crash", 0.02),
    ("plan_drift", 0.05),
)


@pytest.fixture(scope="module")
def plan1():
    graphs, schema = build_plan(1, rows=BATCH)
    return graphs, TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=BATCH)


class ScriptedInjector:
    def __init__(self, schedule):
        self.schedule = dict(schedule)

    def faults_for_iteration(self, iteration, plan):
        return list(self.schedule.get(iteration, []))


def quiet_watchdog():
    """A watchdog that never asks for a replan."""
    return LatencyWatchdog(error_threshold=1e9, fault_rate_threshold=1e9)


def make_runtime(setting, **kwargs):
    graphs, workload = setting
    return FaultTolerantRuntime(RapPlanner(workload), graphs, **kwargs)


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_inits(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_faulted_run_without_telemetry_builds_no_trace_or_samples(plan1, monkeypatch):
    specs = [FaultSpec(kind, rate) for kind, rate in FAULT_MIX]
    runtime = make_runtime(plan1, injector=FaultInjector(specs, seed=3))
    segments = count_inits(monkeypatch, TraceSegment, "__post_init__")
    traces = count_inits(monkeypatch, UtilizationTrace, "__init__")
    samples = count_inits(monkeypatch, CalibrationSample, "__init__")
    batches = count_inits(monkeypatch, SampleBatch, "__init__")
    report = runtime.run(80)
    assert report.num_faults > 10 and report.degraded_iterations > 10
    assert segments == [] and traces == [] and samples == [] and batches == []


def test_faulted_run_builds_no_trace_events_until_read(plan1, monkeypatch):
    specs = [FaultSpec(kind, rate) for kind, rate in FAULT_MIX]
    runtime = make_runtime(
        plan1, injector=FaultInjector(specs, seed=3), telemetry=TelemetrySession()
    )
    durations = count_calls(monkeypatch, spans, "duration_event")
    span_events = count_calls(monkeypatch, spans, "iteration_span_events")
    report = runtime.run(200)
    assert report.num_faults > 10 and report.degraded_iterations > 10
    tracer = runtime.telemetry.tracer
    count = len(tracer)
    assert durations == [] and span_events == []
    # Reading the events builds them, through the patched constructors.
    assert count == len(tracer.events) > 200
    assert len(durations) >= 200 and span_events


@pytest.mark.parametrize(
    "mix, keep_results",
    [(FAULT_MIX[:2], False), (FAULT_MIX, True)],
    ids=["two-kinds", "five-kinds-beside-results"],
)
def test_tracer_retains_at_most_1kb_per_faulted_iteration(plan1, mix, keep_results):
    """Bytes freed by dropping the tracer after 2,000 faulted iterations.

    Under kernel failures and latency overruns alone the degraded results
    repeat, so the bound holds for everything the tracer keeps alive. Sticky
    plan drift under all five kinds makes most degraded results distinct;
    the tracer keeps each by reference, and the bound then holds for what
    it keeps beside them.
    """
    specs = [FaultSpec(kind, rate) for kind, rate in mix]
    session = TelemetrySession()
    runtime = make_runtime(plan1, injector=FaultInjector(specs, seed=3), telemetry=session)
    kept = []
    if keep_results:
        record = session.record_iteration

        def keeping(*args, per_gpu_results=(), **kwargs):
            kept.append(tuple(per_gpu_results))
            record(*args, per_gpu_results=per_gpu_results, **kwargs)

        session.record_iteration = keeping
    iterations = 2000
    tracemalloc.start()
    try:
        report = runtime.run(iterations)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        session.tracer = Tracer()
        gc.collect()
        retained = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.degraded_iterations > 300
    assert retained / iterations <= 1024


def test_one_degraded_scale_builds_its_rows_once(plan1, monkeypatch):
    drift = FaultEvent(PLAN_DRIFT, 0, magnitude=1.3)
    runtime = make_runtime(
        plan1,
        injector=ScriptedInjector({0: [drift]}),
        watchdog=quiet_watchdog(),
        telemetry=TelemetrySession(),
    )
    placements = count_calls(monkeypatch, executor, "scale_plan_kernels")
    rows = count_calls(monkeypatch, executor._InstalledPlan, "_sample_rows")
    samples = count_inits(monkeypatch, CalibrationSample, "__init__")
    batches = count_inits(monkeypatch, SampleBatch, "__init__")
    recorded = count_calls(monkeypatch, runtime.telemetry, "record_batch")
    plan = runtime.plan
    report = runtime.run(6)
    assert runtime.plan is plan and report.replans == 0
    assert len(placements) == 1 and len(rows) == 1
    # One sample per placed kernel for the one row set, not per iteration.
    assert len(samples) == sum(plan.num_kernels_per_gpu())
    assert len(batches) == 1
    assert [iteration for _, iteration in recorded] == list(range(6))
    assert len({id(batch) for batch, _ in recorded}) == 1
    assert runtime.telemetry.residual.total_samples == 6 * sum(plan.num_kernels_per_gpu())


def test_recovery_does_not_rewrite_the_cached_placement(plan1):
    """Recovery rewrites GPU 0's lists in a degraded iteration; the next,
    fault-free iteration at the same scale must run the unrewritten
    placement, as a fresh runtime at that scale does."""
    scale = 1.5
    faults = [
        FaultEvent(PLAN_DRIFT, 0, magnitude=scale),
        FaultEvent(
            KERNEL_FAILURE, 0, gpu=0, stage=5, kernel="fused_Logit_x13", recover_after=50
        ),
        FaultEvent(
            LATENCY_OVERRUN, 0, gpu=0, stage=5, kernel="fused_SigridHash_x13", magnitude=40.0
        ),
    ]
    runtime = make_runtime(
        plan1, injector=ScriptedInjector({0: faults}), watchdog=quiet_watchdog()
    )
    assert "fused_Logit_x13" in [k.name for k in runtime.plan.assignments_per_gpu[0][5]]
    _, _, transitions = runtime.run_iteration(0)
    assert [t.to_rung for t in transitions].count(SHARD_RETRY) == 1
    assert len(transitions) == 2  # the re-shard and the demoted overrun
    assert runtime._scale == scale and not runtime._cpu_kernels
    record, _, _ = runtime.run_iteration(1)

    fresh = make_runtime(plan1, injector=ScriptedInjector({}), watchdog=quiet_watchdog())
    fresh._scale = scale
    expected, _, _ = fresh.run_iteration(1)
    assert record.to_dict() == expected.to_dict()


class DoubledPredictor:
    """A fitted stand-in predictor pricing every kernel at twice its
    modeled latency."""

    is_fitted = True

    def predict_kernel(self, kernel):
        return 2.0 * kernel.duration_us

    def predict_total(self, kernels):
        return sum(self.predict_kernel(k) for k in kernels)


def placement_of(runtime, scale, factors):
    (assignments, trailing), _ = runtime._installed().scaled(scale, factors, False)
    return assignments, trailing


def test_cached_placement_is_dropped_when_its_inputs_change(plan1, monkeypatch):
    graphs, workload = plan1
    runtime = make_runtime(plan1, telemetry=TelemetrySession())
    placements = count_calls(monkeypatch, executor, "scale_plan_kernels")

    def expect(scale, factors, calls):
        assert placement_of(runtime, scale, factors) == scale_plan_kernels(
            runtime.plan, scale, factors
        )
        assert len(placements) == calls

    expect(1.2, {}, 1)
    expect(1.2, {}, 1)  # same scale: served from the cache
    expect(1.3, {}, 2)  # scale change
    expect(1.3, {"Logit": 2.0}, 3)  # drift-factor change
    expect(1.3, {"Logit": 2.0}, 3)

    other_plan = RapPlanner(workload).plan(graphs)
    runtime._install_plan(other_plan)
    expect(1.3, {"Logit": 2.0}, 4)  # a new plan installed

    runtime.planner.set_predictor(DoubledPredictor())
    expect(1.3, {"Logit": 2.0}, 5)  # a new predictor prices the rows



def test_evicted_tenant_records_nothing(plan1, monkeypatch):
    """An evicted runtime places no kernel, so each iteration records an
    empty batch: no sample, and the drift check leaves the detector alone."""
    runtime = make_runtime(
        plan1,
        injector=ScriptedInjector({}),
        watchdog=quiet_watchdog(),
        telemetry=TelemetrySession(),
        drift_schedule=[executor.LatencyDrift("Logit", 3.0, start_iteration=0)],
    )
    telemetry = runtime.telemetry
    runtime.run(2)
    history = telemetry.drift_detector.state_dict()
    assert history["history"]  # the drifting iterations were judged
    runtime.evict_to_cpu(iteration=1)
    total = telemetry.residual.total_samples
    recorded = count_calls(monkeypatch, telemetry, "record_batch")
    checks = count_calls(monkeypatch, telemetry.drift_detector, "observe_iteration")
    runtime.run(3, start_iteration=2)
    assert [len(batch) for batch, _ in recorded] == [0, 0, 0]
    assert len(checks) == 3
    assert telemetry.residual.total_samples == total
    assert telemetry.drift_detector.state_dict() == history


def test_steady_calibrated_iteration_prices_inside_the_residual_model(plan1, monkeypatch):
    """Once the calibrated plan is installed, an iteration records the
    plan's one batch: it builds no sample, and the residual model prices
    every sample itself, with no call into the cost model."""
    runtime = make_runtime(
        plan1,
        telemetry=TelemetrySession(),
        drift_schedule=[executor.LatencyDrift("SigridHash", 1.6, start_iteration=2)],
    )
    report = runtime.run(30)
    assert runtime._calibrated and report.replans >= 1
    recording = []
    record_batch = runtime.telemetry.record_batch

    def flagged(*args, **kwargs):
        recording.append(True)
        try:
            return record_batch(*args, **kwargs)
        finally:
            recording.pop()

    monkeypatch.setattr(runtime.telemetry, "record_batch", flagged)
    latency = CoRunningCostModel.kernel_latency
    prices = []

    def counted_latency(self, kernel):
        if recording:
            prices.append(kernel)
        return latency(self, kernel)

    monkeypatch.setattr(CoRunningCostModel, "kernel_latency", counted_latency)
    samples = count_inits(monkeypatch, CalibrationSample, "__init__")
    batches = count_inits(monkeypatch, SampleBatch, "__init__")
    recorded = count_calls(monkeypatch, runtime.telemetry.residual, "record")
    total = runtime.telemetry.residual.total_samples
    steady = runtime.run(5, start_iteration=30)
    assert steady.replans == 0
    assert samples == [] and batches == [] and prices == []
    assert len(recorded) == 5
    kernels = sum(runtime.plan.num_kernels_per_gpu())
    assert runtime.telemetry.residual.total_samples == total + 5 * kernels


def test_tracer_keeps_spans_only_under_all_five_kinds(plan1):
    """The tracer keeps one spans-only record per distinct result, not the
    result: with nothing else keeping the degraded results alive, dropping
    the tracer after 2,000 five-kind iterations frees at most 1 KB per
    iteration, although most of those results are distinct."""
    specs = [FaultSpec(kind, rate) for kind, rate in FAULT_MIX]
    session = TelemetrySession()
    runtime = make_runtime(plan1, injector=FaultInjector(specs, seed=3), telemetry=session)
    iterations = 2000
    tracemalloc.start()
    try:
        report = runtime.run(iterations)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        session.tracer = Tracer()
        gc.collect()
        retained = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.degraded_iterations > 300
    assert retained / iterations <= 1024


def test_reinstalling_a_recent_plan_evaluates_and_builds_nothing(plan1, monkeypatch):
    graphs, workload = plan1
    runtime = make_runtime(plan1, watchdog=quiet_watchdog(), telemetry=TelemetrySession())
    planner, plan = runtime.planner, runtime.plan
    other_planner = RapPlanner(workload)
    other_plan = other_planner.plan(executor.drift_graph_set(graphs, 2.0))
    runtime.run(2)
    runtime.adopt_plan(other_planner, other_plan, iteration=1)
    runtime.run(2, start_iteration=2)
    evaluations = count_calls(monkeypatch, planner, "evaluate")
    batches = count_inits(monkeypatch, SampleBatch, "__init__")
    runtime.adopt_plan(planner, plan, iteration=3)
    runtime.run(2, start_iteration=4)
    assert runtime.plan is plan
    assert evaluations == [] and batches == []


def test_revisiting_a_scale_rebuilds_no_placement(plan1, monkeypatch):
    """Sticky drift steps 2x, 4x, back to 2x and up to 4x again: the second
    visit to each scale reuses its placement and samples."""
    steps = {0: 2.0, 1: 2.0, 2: 0.5, 3: 2.0}
    runtime = make_runtime(
        plan1,
        injector=ScriptedInjector(
            {i: [FaultEvent(PLAN_DRIFT, i, magnitude=m)] for i, m in steps.items()}
        ),
        watchdog=quiet_watchdog(),
        telemetry=TelemetrySession(),
    )
    placements = count_calls(monkeypatch, executor, "scale_plan_kernels")
    batches = count_inits(monkeypatch, SampleBatch, "__init__")
    runtime.run(2)
    assert [args[1] for args in placements] == [2.0, 4.0] and len(batches) == 2
    report = runtime.run(2, start_iteration=2)
    assert runtime._scale == 4.0 and report.replans == 0
    assert len(placements) == 2 and len(batches) == 2


def test_revisiting_a_cumulative_scale_drifts_no_graph_set(plan1, monkeypatch):
    runtime = make_runtime(plan1, watchdog=quiet_watchdog())
    drifts = count_calls(monkeypatch, executor, "drift_graph_set")
    live = {}
    for scale in (2.0, 4.0, 2.0, 4.0):
        runtime._total_scale = scale
        live.setdefault(scale, runtime._live_graph_set())
        assert runtime._live_graph_set() is live[scale]
    assert [args[1] for args in drifts] == [2.0, 4.0]


def test_derived_state_stays_bounded_over_a_five_kind_run(plan1):
    specs = [FaultSpec(kind, rate) for kind, rate in FAULT_MIX]
    runtime = make_runtime(
        plan1, injector=FaultInjector(specs, seed=3), telemetry=TelemetrySession()
    )
    maps = {
        "installed plans": lambda: [runtime._installed_plans],
        "scaled placements": lambda: [
            installed._scaled for _, installed in runtime._installed_plans._entries.values()
        ],
        "drifted graph sets": lambda: [runtime._drifted_sets],
        "fault sites": lambda: [runtime.injector._sites],
    }
    peak = dict.fromkeys(maps, 0)
    report = None
    for i in range(2000):
        report = runtime.run(1, start_iteration=i, report=report)
        for name, of in maps.items():
            peak[name] = max(peak[name], *map(len, of()))
    assert report.replans > 20 and report.degraded_iterations > 300
    # Every map holds more than one entry, and none outgrows its bound,
    # though some reach it.
    assert all(1 < size <= DERIVED_STATE_ENTRIES for size in peak.values()), peak
    assert max(peak.values()) == DERIVED_STATE_ENTRIES

