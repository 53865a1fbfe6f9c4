"""Runtime <-> telemetry integration: bit-identity when off, drift-triggered
recalibration and replanning, and checkpoint resume with calibration state."""

import pytest

from repro.core import RapPlanner
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.runtime import CheckpointManager, FaultTolerantRuntime, RunJournal, SimulatedKill
from repro.telemetry import (
    CalibratedPredictor,
    CalibrationSample,
    DriftDetector,
    LatencyDrift,
    ResidualModel,
    TelemetrySession,
)

NUM_GPUS = 2
BATCH = 1024


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(1, rows=BATCH)
    workload = TrainingWorkload(
        model_for_plan(graphs, schema), num_gpus=NUM_GPUS, local_batch=BATCH
    )
    return graphs, workload


def make_runtime(setting, telemetry=None, drift_schedule=(), journal=None):
    graphs, workload = setting
    planner = RapPlanner(workload)
    return FaultTolerantRuntime(
        planner, graphs, telemetry=telemetry, drift_schedule=drift_schedule,
        journal=journal,
    )


def report_latencies(report):
    return [(r.iteration, r.iteration_us, r.exposed_us) for r in report.iterations]


class TestZeroCostWhenOff:
    def test_telemetry_off_matches_no_telemetry(self, setting):
        """--no-telemetry runs are bit-identical to telemetry-enabled runs
        when nothing drifts: recording is read-only."""
        plain = make_runtime(setting).run(6)
        instrumented = make_runtime(setting, telemetry=TelemetrySession()).run(6)
        assert report_latencies(plain) == report_latencies(instrumented)

    def test_telemetry_off_checkpoint_state_unchanged(self, setting):
        with_t = make_runtime(setting, telemetry=TelemetrySession())
        without = make_runtime(setting)
        without.run(3)
        with_t.run(3)
        assert "calibration" not in without.state_dict()
        assert "drift_schedule" not in without.state_dict()
        assert "calibration" in with_t.state_dict()

    def test_oracle_predictions_keep_detector_quiet(self, setting):
        telemetry = TelemetrySession()
        make_runtime(setting, telemetry=telemetry).run(6)
        assert telemetry.drift_events == []
        assert telemetry.residual.total_samples > 0
        # Oracle predictions match the simulator exactly: no corrections.
        assert all(c == 1.0 for c in telemetry.residual.corrections().values())


class TestDriftAdaptation:
    def test_drift_fires_detector_and_replans(self, setting):
        telemetry = TelemetrySession(drift_detector=DriftDetector(threshold=0.25, window=3))
        runtime = make_runtime(
            setting,
            telemetry=telemetry,
            drift_schedule=[LatencyDrift("Clamp", 2.5, start_iteration=2)],
        )
        report = runtime.run(10)
        assert len(telemetry.drift_events) >= 1
        assert telemetry.drift_events[0].worst_op_type == "Clamp"
        assert report.replans >= 1
        assert runtime._calibrated
        predictor = runtime.planner.cost_model.predictor
        assert isinstance(predictor, CalibratedPredictor)
        assert predictor.residual.correction("Clamp") == pytest.approx(2.5, rel=0.01)

    def test_drift_visible_only_through_observations(self, setting):
        """A per-op factor hides under training overlap -- iteration latency
        barely moves -- so only the observed-vs-predicted residual stream
        reveals it. This is exactly why the calibration loop exists."""
        telemetry = TelemetrySession()
        make_runtime(
            setting,
            telemetry=telemetry,
            drift_schedule=[LatencyDrift("Clamp", 3.0, start_iteration=0)],
        ).run(4)
        clamp = telemetry.residual.samples_for("Clamp")
        assert clamp
        for s in clamp:
            assert s.observed_us == pytest.approx(3.0 * s.predicted_us)
        other = telemetry.residual.samples_for("FillNull")
        for s in other:
            assert s.observed_us == pytest.approx(s.predicted_us)

    def test_drift_window_expires(self, setting):
        telemetry = TelemetrySession()
        runtime = make_runtime(
            setting,
            telemetry=telemetry,
            drift_schedule=[LatencyDrift("Clamp", 2.5, start_iteration=1, end_iteration=3)],
        )
        report = runtime.run(8)
        # After the window closes the run returns to the transparent path:
        # late iterations match an undisturbed run's latencies.
        plain = make_runtime(setting).run(8)
        assert report.iterations[-1].iteration_us == pytest.approx(
            plain.iterations[-1].iteration_us
        )

    def test_calibration_reduces_mape(self, setting):
        telemetry = TelemetrySession()
        make_runtime(
            setting,
            telemetry=telemetry,
            drift_schedule=[LatencyDrift("Clamp", 2.5, start_iteration=0)],
        ).run(8)
        assert telemetry.calibrated_mape < telemetry.predictor_mape


class TestCheckpointResumeWithCalibration:
    def run_with_kill(self, setting, tmp_path, kill_after):
        graphs, workload = setting
        schedule = [LatencyDrift("Clamp", 2.5, start_iteration=2)]
        telemetry = TelemetrySession()
        runtime = make_runtime(setting, telemetry=telemetry, drift_schedule=schedule)
        manager = CheckpointManager(tmp_path)
        try:
            runtime.run(12, checkpoints=manager, checkpoint_every=2, kill_after=kill_after)
        except SimulatedKill:
            pass
        resumed_telemetry = TelemetrySession()
        restored, report, next_iteration = FaultTolerantRuntime.restore(
            manager.latest(),
            graphs,
            workload,
            make_planner=RapPlanner,
            telemetry=resumed_telemetry,
        )
        report = restored.run(
            12 - next_iteration, start_iteration=next_iteration, report=report
        )
        return report, restored, resumed_telemetry

    def test_resume_replays_bit_identically(self, setting, tmp_path):
        telemetry = TelemetrySession()
        uninterrupted = make_runtime(
            setting,
            telemetry=telemetry,
            drift_schedule=[LatencyDrift("Clamp", 2.5, start_iteration=2)],
        ).run(12)
        resumed_report, _, _ = self.run_with_kill(setting, tmp_path, kill_after=7)
        assert report_latencies(resumed_report) == report_latencies(uninterrupted)

    def test_resume_restores_calibration_state(self, setting, tmp_path):
        _, restored, resumed_telemetry = self.run_with_kill(
            setting, tmp_path, kill_after=7
        )
        # The kill lands after the drift fired at ~iteration 4, so the
        # restored runtime must come back already calibrated.
        assert restored._calibrated
        predictor = restored.planner.cost_model.predictor
        assert isinstance(predictor, CalibratedPredictor)
        assert predictor.residual is resumed_telemetry.residual

    def test_resume_echo_restores_drift_schedule(self, setting, tmp_path):
        graphs, workload = setting
        schedule = [LatencyDrift("Clamp", 2.5, start_iteration=2)]
        runtime = make_runtime(
            setting, telemetry=TelemetrySession(), drift_schedule=schedule
        )
        manager = CheckpointManager(tmp_path)
        try:
            runtime.run(12, checkpoints=manager, checkpoint_every=2, kill_after=5)
        except SimulatedKill:
            pass
        # No explicit schedule on restore: the checkpoint echo supplies it.
        restored, _, _ = FaultTolerantRuntime.restore(
            manager.latest(),
            graphs,
            workload,
            make_planner=RapPlanner,
            telemetry=TelemetrySession(),
        )
        assert restored.drift_schedule == schedule


class TestCalibrationCost:
    """Cost guards by operation counts, not timings, over one 25-iteration
    SigridHash x1.6 drift episode: the detector fires, so every kernel
    price goes through the residual model."""

    SCHEDULE = [LatencyDrift("SigridHash", 1.6, start_iteration=2)]

    def test_log_ratio_computed_at_most_once_per_sample(self, setting, monkeypatch):
        log_ratio = CalibrationSample.__dict__["log_ratio"]
        original = log_ratio.func
        computed = []  # holds the samples, so no id is reused

        def counting(sample):
            computed.append(sample)
            return original(sample)

        monkeypatch.setattr(log_ratio, "func", counting)
        runtime = make_runtime(
            setting, telemetry=TelemetrySession(), drift_schedule=self.SCHEDULE
        )
        runtime.run(25)
        assert runtime._calibrated
        assert computed
        assert len({id(s) for s in computed}) == len(computed)

    def test_unjournaled_runtime_never_computes_mape(self, setting, monkeypatch):
        calls = []
        monkeypatch.setattr(
            ResidualModel,
            "mean_absolute_percentage_error",
            lambda model, corrected=False: calls.append(corrected) or 0.0,
        )
        runtime = make_runtime(
            setting, telemetry=TelemetrySession(), drift_schedule=self.SCHEDULE
        )
        runtime.run(25)
        assert runtime._calibrated
        assert calls == []

    def test_journaled_runtime_writes_one_summary_per_run(self, setting, tmp_path):
        telemetry = TelemetrySession()
        journal = RunJournal(tmp_path / "journal.jsonl")
        runtime = make_runtime(
            setting, telemetry=telemetry, drift_schedule=self.SCHEDULE, journal=journal
        )
        expected = []
        report = None
        for start, count in ((0, 10), (10, 15)):
            report = runtime.run(count, start_iteration=start, report=report)
            expected.append(
                {
                    "type": "calibration_summary",
                    "mape_raw": round(telemetry.predictor_mape, 6),
                    "mape_calibrated": round(telemetry.calibrated_mape, 6),
                    "drift_events": len(telemetry.drift_events),
                }
            )
        journal.close()
        records = RunJournal.read(journal.path)
        summaries = [r for r in records if r["type"] == "calibration_summary"]
        assert summaries == expected


class TestPerPlanTelemetryCost:
    """Cost guards by operation counts: what a plan install fixes is
    computed once per plan, not once per iteration."""

    N = 12

    @pytest.fixture
    def counters(self, monkeypatch):
        from repro.runtime import executor
        from repro.telemetry.registry import MetricsRegistry

        counts = {"features": 0, "simulate": 0, "get_or_create": 0}

        def counting(key, original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            executor, "kernel_features", counting("features", executor.kernel_features)
        )
        monkeypatch.setattr(
            TrainingWorkload, "simulate", counting("simulate", TrainingWorkload.simulate)
        )
        monkeypatch.setattr(
            MetricsRegistry,
            "_get_or_create",
            counting("get_or_create", MetricsRegistry._get_or_create),
        )
        return counts

    @staticmethod
    def placed_kernels(plan):
        return sum(plan.num_kernels_per_gpu())

    def test_clean_run_prices_each_plan_once(self, setting, counters):
        runtime = make_runtime(setting, telemetry=TelemetrySession())
        counters.update(dict.fromkeys(counters, 0))
        runtime.run(self.N)
        assert runtime.telemetry.residual.total_samples == self.N * self.placed_kernels(
            runtime.plan
        )
        assert counters["features"] == self.placed_kernels(runtime.plan)
        assert counters["simulate"] == 1
        # Two per-op children bound on each op's first sample, never again.
        op_types = len(runtime.telemetry.residual.op_types())
        assert counters["get_or_create"] == 2 * op_types
        counters.update(dict.fromkeys(counters, 0))
        runtime.run(self.N, start_iteration=self.N)
        assert counters == {"features": 0, "simulate": 0, "get_or_create": 0}

    def test_forced_replan_adds_one_plan_worth(self, setting, counters):
        runtime = make_runtime(setting, telemetry=TelemetrySession())
        runtime.run(self.N)
        before = runtime._installed_plan
        runtime._replan(self.N)
        assert runtime._installed_plan is not before
        counters.update(dict.fromkeys(counters, 0))
        runtime.run(self.N, start_iteration=self.N + 1)
        assert counters == {
            "features": self.placed_kernels(runtime.plan),
            "simulate": 1,
            "get_or_create": 0,
        }


class TestZeroCostWhenOffPerPlan:
    def test_no_sample_inputs_built_without_telemetry(self, setting, monkeypatch):
        """With ``telemetry=None`` neither the transparent nor the degraded
        path builds sample rows, features or samples."""
        from repro.runtime import FaultEvent, executor

        class PoolCrashes:
            def faults_for_iteration(self, iteration, plan):
                return [FaultEvent("cpu_pool_crash", iteration)] if iteration in (1, 7) else []

        calls = []
        monkeypatch.setattr(executor, "kernel_features", lambda *a: calls.append("features"))
        monkeypatch.setattr(executor, "CalibrationSample", lambda *a: calls.append("sample"))
        graphs, workload = setting
        runtime = FaultTolerantRuntime(
            RapPlanner(workload),
            graphs,
            injector=PoolCrashes(),
            drift_schedule=[LatencyDrift("Clamp", 2.5, start_iteration=3, end_iteration=5)],
        )
        report = runtime.run(10)
        assert [r.num_faults for r in report.iterations].count(1) == 2
        assert calls == []
        built = vars(runtime._installed_plan)
        assert "report" in built  # the transparent path ran
        assert "_gpu_rows" not in built
