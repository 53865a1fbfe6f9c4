"""Every plan install drops what the runtime derived from the old plan.

The runtime computes each plan's transparent-path report and per-kernel
sample inputs once, behind one install seam. On every path that swaps the
plan, planner or predictor, the recorded calibration-sample stream must
equal one recomputed from scratch with the per-sample formulas: the base
and active price from the live cost model, the features of the kernel as
placed, and the observation the simulator executes. Each clean iteration's
latency must equal a fresh evaluation of the live plan.
"""

import copy

import pytest

from repro.core import RapPlanner
from repro.core.adaptation import drift_graph_set, scale_plan_kernels
from repro.core.latency_predictor import kernel_features
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.runtime import (
    GPU_LOST,
    CheckpointManager,
    FaultEvent,
    FaultTolerantRuntime,
    ShadowConfig,
    ShadowPlanner,
    SimulatedKill,
)
from repro.telemetry import (
    CalibratedPredictor,
    CalibrationSample,
    DriftDetector,
    DriftErrors,
    LatencyDrift,
    ResidualModel,
    SampleBatch,
    TelemetrySession,
    drift_factors_at,
)

BATCH = 1024


@pytest.fixture(scope="module")
def plan1():
    graphs, schema = build_plan(1, rows=BATCH)
    return graphs, TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=BATCH)


@pytest.fixture(scope="module")
def plan2():
    graphs, schema = build_plan(2, rows=BATCH)
    return graphs, TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=BATCH)


class ScriptedInjector:
    def __init__(self, schedule):
        self.schedule = dict(schedule)

    def faults_for_iteration(self, iteration, plan):
        return list(self.schedule.get(iteration, []))


def reference_sample(runtime, kernel, stage, observed_us, iteration) -> CalibrationSample:
    """One sample from scratch, priced by the live cost model."""
    cost_model = runtime.planner.cost_model
    predictor = cost_model.predictor
    active = cost_model.kernel_latency(kernel)
    base = (
        predictor.base_prediction(kernel)
        if isinstance(predictor, CalibratedPredictor)
        else active
    )
    return CalibrationSample(
        op_type=kernel.tag,
        predicted_us=base,
        observed_us=observed_us,
        iteration=iteration,
        stage=stage,
        features=tuple(kernel_features(kernel)),
        active_predicted_us=active if active != base else None,
    )


def reference_sites(runtime, iteration, transparent):
    """``(kernel as priced, stage, observed us)`` in recording order."""
    plan = runtime.plan
    if transparent:
        staged = [
            (k, stage, k.duration_us)
            for per_gpu in plan.assignments_per_gpu
            for stage in sorted(per_gpu)
            for k in per_gpu[stage]
        ]
        return staged + [(k, -1, k.duration_us) for t in plan.trailing_per_gpu for k in t]
    factors = drift_factors_at(runtime.drift_schedule, iteration)
    assignments, trailing = scale_plan_kernels(plan, runtime._scale)
    sites = []
    for gpu, per_gpu in enumerate(assignments):
        placed = [(k, stage) for stage in sorted(per_gpu) for k in per_gpu[stage]]
        placed += [(k, -1) for k in trailing[gpu]]
        sites += [(k, stage, k.duration_us * factors.get(k.tag, 1.0)) for k, stage in placed]
    return sites


class SampleOracle:
    """Checks every recorded sample against :func:`reference_sample`.

    The runtime records each iteration as one batch, pricing a calibrated
    batch's samples inside the residual model as it records them. The
    oracle first records the iteration's reference samples one at a time,
    each recomputed by the live cost model after every earlier one reached
    the residual model, as the per-sample path did; it then rewinds the
    model and lets the batch record. The two must leave the same model
    state and drift errors, and each recorded sample -- read back from its
    window at the iteration it was recorded at -- must equal its reference
    sample. Between iterations, the derived data must belong to the live
    plan and planner: a swap that bypassed the install seam would leave it
    behind.
    """

    def __init__(self, runtime, monkeypatch):
        self.runtime = runtime
        self.checked: list[int] = []  # the iteration of every checked sample
        self.calibrated = 0  # how many of them a calibrated predictor priced
        self._sites = None
        self._iteration = None
        self._transparent = None
        run_iteration = runtime.run_iteration

        def observed_iteration(iteration):
            self._finish_iteration()
            rt = self.runtime
            faults = rt.injector.faults_for_iteration(iteration, rt.plan)
            self._iteration = iteration
            self._transparent = (
                not faults
                and rt._scale == 1.0
                and not rt._cpu_kernels
                and rt._pending_recovery_us == 0.0
                and not drift_factors_at(rt.drift_schedule, iteration)
            )
            fresh = rt.planner.evaluate(rt.plan) if self._transparent else None
            record, faults, transitions = run_iteration(iteration)
            if fresh is not None:
                assert record.iteration_us == fresh.iteration_us
                assert record.exposed_us == fresh.exposed_preprocessing_us
            return record, faults, transitions

        runtime.run_iteration = observed_iteration
        record = ResidualModel.record

        def checked_record(model, sample, iteration=None, calibrated=False):
            if model is not self.runtime.telemetry.residual or not isinstance(
                sample, SampleBatch
            ):
                return record(model, sample, iteration, calibrated)
            rewind = copy.deepcopy(model.__dict__)
            expected = []
            for _ in sample:
                expected.append(self._expected())
                record(model, expected[-1])
            reference = model.state_dict()
            model.__dict__.update(rewind)
            errors = record(model, sample, iteration, calibrated)
            assert model.state_dict() == reference
            assert (errors.per_op, errors.errors) == (
                DriftErrors.of(expected).per_op,
                DriftErrors.of(expected).errors,
            )
            for recorded, want in zip(self._recorded(model, sample), expected, strict=True):
                assert recorded.to_dict() == want.to_dict()
                self.checked.append(recorded.iteration)
            self.calibrated += len(sample) if calibrated else 0
            return errors

        monkeypatch.setattr(ResidualModel, "record", checked_record)

    def _expected(self):
        if self._sites is None:
            self._sites = iter(
                reference_sites(self.runtime, self._iteration, self._transparent)
            )
        kernel, stage, observed_us = next(self._sites)
        return reference_sample(self.runtime, kernel, stage, observed_us, self._iteration)

    @staticmethod
    def _recorded(model, batch):
        """The batch's samples as the model recorded them, in recording
        order: the tail of each op type's window."""
        tails = {}
        for op_type, templates, _, _ in batch.ops:
            window = model.samples_for(op_type)
            assert len(window) >= len(templates), "the window dropped part of the batch"
            tails[op_type] = iter(window[len(window) - len(templates) :])
        return [next(tails[t.op_type]) for t in batch]

    def _finish_iteration(self):
        if self._sites is not None:
            assert next(self._sites, None) is None, "fewer samples than placed kernels"
        self._sites = None
        installed = self.runtime._installed()
        assert installed.plan is self.runtime.plan
        assert installed.planner is self.runtime.planner

    def run(self, count, start):
        report = self.runtime.run(count, start_iteration=start)
        self._finish_iteration()
        return report

    def checked_after(self, iteration) -> int:
        return sum(1 for i in self.checked if i > iteration)


def make_runtime(setting, **kwargs):
    graphs, workload = setting
    kwargs.setdefault("telemetry", TelemetrySession())
    return FaultTolerantRuntime(RapPlanner(workload), graphs, **kwargs)


def test_watchdog_replan(plan1, monkeypatch):
    runtime = make_runtime(plan1)
    oracle = SampleOracle(runtime, monkeypatch)
    oracle.run(3, 0)
    before = runtime._installed()
    runtime._total_scale = 1.6  # the live distribution drifted
    runtime._replan(2)
    assert runtime._installed() is not before
    oracle.run(3, 3)
    assert oracle.checked_after(2) == 3 * sum(runtime.plan.num_kernels_per_gpu())


def test_drift_recalibration(plan2, monkeypatch):
    """The drift fires, the calibrated predictor is set, the replan moves
    kernels, and the stream stays exact through drifted and (once the
    drift ends) clean iterations priced through the corrections."""
    runtime = make_runtime(
        plan2,
        telemetry=TelemetrySession(drift_detector=DriftDetector(threshold=0.25, window=3)),
        drift_schedule=[LatencyDrift("SigridHash", 20.0, start_iteration=2, end_iteration=8)],
    )
    original = runtime.plan
    oracle = SampleOracle(runtime, monkeypatch)
    report = oracle.run(12, 0)
    assert runtime._calibrated and report.replans >= 1
    assert runtime.plan.assignments_per_gpu != original.assignments_per_gpu
    assert isinstance(runtime._installed().predictor, CalibratedPredictor)
    assert oracle.checked_after(8) > 0
    assert oracle.calibrated > 0


class DoubledPredictor:
    """A fitted stand-in predictor pricing every kernel at twice its
    modeled latency."""

    is_fitted = True

    def predict_kernel(self, kernel):
        return 2.0 * kernel.duration_us

    def predict_total(self, kernels):
        return sum(self.predict_kernel(k) for k in kernels)


def test_set_predictor_without_install(plan1, monkeypatch):
    """A predictor swapped straight on the planner also drops the cache."""
    runtime = make_runtime(plan1)
    oracle = SampleOracle(runtime, monkeypatch)
    oracle.run(3, 0)
    runtime.planner.set_predictor(DoubledPredictor())
    oracle.run(2, 3)
    assert oracle.checked_after(2) == 2 * sum(runtime.plan.num_kernels_per_gpu())


def test_adopt_plan(plan1, monkeypatch):
    graphs, workload = plan1
    other_planner = RapPlanner(workload)
    other_plan = other_planner.plan(drift_graph_set(graphs, 2.0))
    runtime = make_runtime(plan1)
    oracle = SampleOracle(runtime, monkeypatch)
    oracle.run(3, 0)
    runtime.adopt_plan(other_planner, other_plan, iteration=2)
    assert runtime._installed().plan is other_plan
    oracle.run(3, 3)
    assert oracle.checked_after(2) == 3 * sum(other_plan.num_kernels_per_gpu())


def test_evict_then_restore(plan1, monkeypatch):
    runtime = make_runtime(plan1)
    oracle = SampleOracle(runtime, monkeypatch)
    oracle.run(3, 0)
    planner, plan = runtime.planner, runtime.plan
    runtime.evict_to_cpu(iteration=2)
    oracle.run(2, 3)
    assert oracle.checked_after(2) == 0  # nothing is placed while evicted
    runtime.adopt_plan(planner, plan, iteration=4, reason="restore")
    oracle.run(3, 5)
    assert oracle.checked_after(4) == 3 * sum(plan.num_kernels_per_gpu())


def test_gpu_lost(plan1, monkeypatch):
    graphs, workload = plan1
    lost = FaultEvent(kind=GPU_LOST, iteration=3, gpu=1, recover_after=-1)
    runtime = make_runtime(plan1, injector=ScriptedInjector({3: [lost]}))
    oracle = SampleOracle(runtime, monkeypatch)
    oracle.run(6, 0)
    assert runtime.workload.num_gpus == 1
    assert oracle.checked_after(2) == 3 * sum(runtime.plan.num_kernels_per_gpu())


@pytest.mark.parametrize(
    "schedule, outcome",
    [
        ([LatencyDrift("SigridHash", 20.0, start_iteration=2, end_iteration=11)], "commits"),
        (
            [
                LatencyDrift("SigridHash", 20.0, start_iteration=2, end_iteration=5),
                LatencyDrift("MapId", 20.0, start_iteration=6, end_iteration=11),
            ],
            "rollbacks",
        ),
    ],
)
def test_shadow_promotion_and_rollback(plan2, monkeypatch, schedule, outcome):
    config = ShadowConfig(rollback_threshold=0.30) if outcome == "commits" else ShadowConfig()
    shadow = ShadowPlanner(config=config)
    runtime = make_runtime(
        plan2,
        telemetry=TelemetrySession(drift_detector=DriftDetector(threshold=0.25, window=3)),
        drift_schedule=schedule,
        shadow=shadow,
    )
    oracle = SampleOracle(runtime, monkeypatch)
    oracle.run(14, 0)
    counters = shadow.counters()
    assert counters["promotions"] == 1 and counters[outcome] == 1
    assert oracle.checked_after(10) == 3 * sum(runtime.plan.num_kernels_per_gpu())


def test_checkpoint_resume(plan1, tmp_path, monkeypatch):
    graphs, workload = plan1
    schedule = [LatencyDrift("Clamp", 2.5, start_iteration=2, end_iteration=6)]
    runtime = make_runtime(plan1, drift_schedule=schedule)
    manager = CheckpointManager(tmp_path)
    with pytest.raises(SimulatedKill):
        runtime.run(12, checkpoints=manager, checkpoint_every=2, kill_after=7)
    restored, _, next_iteration = FaultTolerantRuntime.restore(
        manager.latest(), graphs, workload, make_planner=RapPlanner,
        telemetry=TelemetrySession(),
    )
    assert restored._calibrated
    oracle = SampleOracle(restored, monkeypatch)
    oracle.run(12 - next_iteration, next_iteration)
    assert oracle.checked_after(next_iteration - 1) == (12 - next_iteration) * sum(
        restored.plan.num_kernels_per_gpu()
    )
    assert oracle.calibrated == len(oracle.checked)
