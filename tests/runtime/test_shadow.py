"""Shadow planning: guarded promotion, probation, and automatic rollback.

Covers the guardrail state machine in isolation, the full
drift -> candidate -> promotion -> probation cycle through the runtime
(commit, rollback, and membership-abort outcomes), bit-identical replay
under a fixed seed, transparency when detached, and resume mid-probation.
"""

import json

import pytest

from repro.core import RapPlanner
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.runtime import (
    GPU_LOST,
    PROBATION_COMMITTED,
    PROBATION_ROLLED_BACK,
    CheckpointManager,
    FaultEvent,
    FaultTolerantRuntime,
    RunJournal,
    ShadowConfig,
    ShadowObservation,
    ShadowPlanner,
    SimulatedKill,
    validate_records,
)
from repro.telemetry import DriftDetector, LatencyDrift, TelemetrySession

NUM_GPUS = 2
BATCH = 1024

#: Sustained drift that exposes preprocessing latency, so a recalibrated
#: candidate has a real win for the guardrail to measure.
SUSTAINED = [LatencyDrift("SigridHash", 20.0, start_iteration=2)]
#: A second drift landing mid-probation: the promoted plan's realized
#: latency regresses past the threshold and must be rolled back.
REGRESSING = SUSTAINED + [LatencyDrift("MapId", 20.0, start_iteration=6)]


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(2, rows=BATCH)
    model = model_for_plan(graphs, schema)
    workload = TrainingWorkload(model, num_gpus=NUM_GPUS, local_batch=BATCH)
    return graphs, workload


def make_runtime(setting, shadow=None, drift_schedule=(), injector=None, journal=None):
    graphs, workload = setting
    planner = RapPlanner(workload)
    telemetry = TelemetrySession(drift_detector=DriftDetector(threshold=0.25, window=3))
    return FaultTolerantRuntime(
        planner,
        graphs,
        injector=injector,
        telemetry=telemetry,
        drift_schedule=drift_schedule,
        shadow=shadow,
        journal=journal,
    )


def trail(report):
    return [(r.iteration, r.iteration_us, r.exposed_us, r.replanned) for r in report.iterations]


class ScriptedInjector:
    def __init__(self, schedule):
        self.schedule = dict(schedule)

    def faults_for_iteration(self, iteration, plan):
        return list(self.schedule.get(iteration, []))


def gpu_lost(iteration, gpu):
    return FaultEvent(kind=GPU_LOST, iteration=iteration, gpu=gpu, recover_after=-1)


def obs(iteration, plan_epoch=0, exposed_us=100.0, iteration_us=1000.0, scale=1.0):
    return ShadowObservation(
        iteration=iteration,
        plan_epoch=plan_epoch,
        scale=scale,
        drift_factors={},
        exposed_us=exposed_us,
        iteration_us=iteration_us,
    )


class TestShadowConfig:
    def test_defaults_valid(self):
        config = ShadowConfig()
        assert config.promote_margin == 0.10
        assert config.probation_iters == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"promote_margin": 0.0},
            {"promote_margin": -0.1},
            {"hysteresis": -0.01},
            {"probation_iters": 0},
            {"rollback_threshold": 0.0},
            {"eval_every": -1},
            {"window": 0},
            {"cooldown_iters": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ShadowConfig(**kwargs)

    def test_dict_round_trip(self):
        config = ShadowConfig(promote_margin=0.2, probation_iters=3)
        assert ShadowConfig(**config.to_dict()) == config


class TestGuardrail:
    def test_win_below_margin_declines(self):
        shadow = ShadowPlanner(config=ShadowConfig(promote_margin=0.10))
        verdict = shadow.judge(5, 1000.0, 950.0, "drift")  # 5% win
        assert not verdict.promote
        assert verdict.predicted_win == pytest.approx(0.05)
        assert verdict.required_win == pytest.approx(0.10)

    def test_win_at_margin_promotes(self):
        shadow = ShadowPlanner(config=ShadowConfig(promote_margin=0.10))
        verdict = shadow.judge(5, 1000.0, 900.0, "drift")
        assert verdict.promote

    def test_zero_baseline_never_promotes(self):
        """Nothing exposed means nothing to improve, whatever the candidate."""
        shadow = ShadowPlanner()
        verdict = shadow.judge(5, 0.0, 0.0, "cadence")
        assert not verdict.promote
        assert verdict.predicted_win == 0.0

    def test_hysteresis_raises_bar_after_rollback(self):
        shadow = ShadowPlanner(config=ShadowConfig(promote_margin=0.10, hysteresis=0.05))
        verdict = shadow.judge(5, 1000.0, 880.0, "drift")  # 12% win clears 10%
        assert verdict.promote
        shadow.begin_probation(
            5, verdict, predicted_exposed_us=880.0, predicted_iteration_us=1000.0,
            baseline_iteration_us=1000.0, from_epoch=0, to_epoch=1, anchor={},
        )
        for i in range(6, 8):
            action = shadow.observe(obs(i, plan_epoch=1, iteration_us=2000.0))
            if action:
                assert action == PROBATION_ROLLED_BACK
                break
        shadow.finish_probation(PROBATION_ROLLED_BACK, i)
        # The same 12% win no longer clears the widened 15% bar.
        verdict = shadow.judge(20, 1000.0, 880.0, "drift")
        assert verdict.required_win == pytest.approx(0.15)
        assert not verdict.promote

    def test_commit_clears_hysteresis(self):
        shadow = ShadowPlanner(config=ShadowConfig(probation_iters=1))
        shadow._post_rollback = True
        verdict = shadow.judge(5, 1000.0, 700.0, "drift")
        shadow.begin_probation(
            5, verdict, predicted_exposed_us=700.0, predicted_iteration_us=1000.0,
            baseline_iteration_us=1000.0, from_epoch=0, to_epoch=1, anchor={},
        )
        assert shadow.observe(obs(6, plan_epoch=1)) == PROBATION_COMMITTED
        shadow.finish_probation(PROBATION_COMMITTED, 6)
        assert shadow.required_win == pytest.approx(shadow.config.promote_margin)


class TestPacingAndTriggers:
    def test_candidate_needs_full_window(self):
        shadow = ShadowPlanner(config=ShadowConfig(window=4, eval_every=1))
        for i in range(3):
            shadow.observe(obs(i))
            assert not shadow.wants_candidate(i, 0)
        shadow.observe(obs(3))
        assert shadow.wants_candidate(3, 0)

    def test_window_split_by_epoch(self):
        """Entries measured under an old plan never score a new epoch."""
        shadow = ShadowPlanner(config=ShadowConfig(window=4))
        for i in range(4):
            shadow.observe(obs(i, plan_epoch=0))
        shadow.observe(obs(4, plan_epoch=1))
        assert len(shadow.window_for_epoch(0)) == 3
        assert len(shadow.window_for_epoch(1)) == 1
        assert not shadow.window_ready(1)

    def test_trigger_beats_cadence(self):
        shadow = ShadowPlanner(config=ShadowConfig(window=2, eval_every=100))
        shadow.observe(obs(0))
        shadow.observe(obs(1))
        assert not shadow.wants_candidate(1, 0)
        shadow.note_trigger(1, "drift")
        assert shadow.wants_candidate(1, 0)
        shadow.judge(1, 1000.0, 990.0, shadow.pending_trigger)
        assert shadow.pending_trigger is None  # judge consumes it

    def test_trigger_suppressed_during_probation(self):
        shadow = ShadowPlanner(config=ShadowConfig(window=1))
        verdict = shadow.judge(3, 1000.0, 500.0, "drift")
        shadow.begin_probation(
            3, verdict, predicted_exposed_us=500.0, predicted_iteration_us=1000.0,
            baseline_iteration_us=1000.0, from_epoch=0, to_epoch=1, anchor={},
        )
        shadow.note_trigger(4, "watchdog")
        assert shadow.pending_trigger is None
        assert shadow.suppressed_triggers == 1
        assert not shadow.wants_candidate(4, 1)

    def test_cooldown_blocks_next_evaluation(self):
        shadow = ShadowPlanner(config=ShadowConfig(window=1, eval_every=1, cooldown_iters=5))
        verdict = shadow.judge(3, 1000.0, 500.0, "drift")
        shadow.begin_probation(
            3, verdict, predicted_exposed_us=500.0, predicted_iteration_us=1000.0,
            baseline_iteration_us=1000.0, from_epoch=0, to_epoch=1, anchor={},
        )
        shadow.finish_probation(PROBATION_COMMITTED, 6)
        shadow.observe(obs(7, plan_epoch=1))
        assert not shadow.wants_candidate(7, 1)  # inside cooldown
        shadow.observe(obs(12, plan_epoch=1))
        assert shadow.wants_candidate(12, 1)

    def test_double_probation_rejected(self):
        shadow = ShadowPlanner()
        verdict = shadow.judge(3, 1000.0, 500.0, "drift")
        shadow.begin_probation(
            3, verdict, predicted_exposed_us=500.0, predicted_iteration_us=1000.0,
            baseline_iteration_us=1000.0, from_epoch=0, to_epoch=1, anchor={},
        )
        with pytest.raises(RuntimeError):
            shadow.begin_probation(
                4, verdict, predicted_exposed_us=500.0, predicted_iteration_us=1000.0,
                baseline_iteration_us=1000.0, from_epoch=1, to_epoch=2, anchor={},
            )
        with pytest.raises(RuntimeError):
            ShadowPlanner().finish_probation(PROBATION_COMMITTED, 4)


class TestShadowStateRoundTrip:
    def test_mid_probation_state_round_trips(self):
        shadow = ShadowPlanner(config=ShadowConfig(probation_iters=4))
        for i in range(4):
            shadow.observe(obs(i))
        verdict = shadow.judge(3, 1000.0, 500.0, "drift")
        shadow.begin_probation(
            3, verdict, predicted_exposed_us=500.0, predicted_iteration_us=1000.0,
            baseline_iteration_us=1000.0, from_epoch=0, to_epoch=1,
            anchor={"directory": "ckpt-00000004-anchor", "plan": "{}"},
        )
        shadow.observe(obs(4, plan_epoch=1))
        state = json.loads(json.dumps(shadow.state_dict()))  # must be JSON-clean
        # Config is constructor-owned (the state echo exists for resume
        # compatibility checks), so the clone is built with the same one.
        clone = ShadowPlanner(config=ShadowConfig(probation_iters=4))
        clone.load_state(state)
        assert clone.in_probation
        assert clone.anchor["directory"] == "ckpt-00000004-anchor"
        assert clone.counters() == shadow.counters()
        assert clone.state_dict() == shadow.state_dict()
        # Both finish identically from the restored point.
        assert clone.observe(obs(5, plan_epoch=1)) == shadow.observe(obs(5, plan_epoch=1))


class TestFullCycle:
    def test_rollback_cycle_and_journal(self, setting, tmp_path):
        """drift -> candidate -> promotion -> injected regression -> rollback,
        with the whole transaction narrated in the journal."""
        journal = RunJournal(tmp_path / "journal.jsonl")
        shadow = ShadowPlanner()
        with journal:
            runtime = make_runtime(
                setting, shadow=shadow, drift_schedule=REGRESSING, journal=journal
            )
            runtime.run(14)
        assert shadow.counters()["promotions"] == 1
        assert shadow.counters()["rollbacks"] == 1
        assert shadow.counters()["commits"] == 0
        records = RunJournal.read(tmp_path / "journal.jsonl")
        promotions = [r for r in records if r["type"] == "promotion"]
        results = [r for r in records if r["type"] == "promotion_result"]
        assert len(promotions) == 1 and len(results) == 1
        assert results[0]["outcome"] == PROBATION_ROLLED_BACK
        # The rollback happened within the probation window.
        assert results[0]["iteration"] - promotions[0]["iteration"] <= shadow.config.probation_iters
        # The swap and the rollback are separate plan generations.
        assert results[0]["plan_epoch"] > promotions[0]["plan_epoch"]
        errors, warnings = validate_records(records)
        assert errors == [] and warnings == []

    def test_commit_cycle(self, setting):
        shadow = ShadowPlanner(config=ShadowConfig(rollback_threshold=0.30))
        runtime = make_runtime(setting, shadow=shadow, drift_schedule=SUSTAINED)
        runtime.run(14)
        counters = shadow.counters()
        assert counters["promotions"] == 1
        assert counters["commits"] == 1
        assert counters["rollbacks"] == 0
        assert not runtime.watchdog._suppressed
        assert shadow.last_realized_win is not None

    def test_commit_restarts_watchdog_window(self, setting):
        """The committed plan is judged afresh: the window fed while the
        watchdog was suppressed during probation does not carry over."""
        shadow = ShadowPlanner(config=ShadowConfig(rollback_threshold=0.30))
        runtime = make_runtime(setting, shadow=shadow, drift_schedule=SUSTAINED)
        window_at_commit = []
        original = runtime._shadow_step

        def spy(iteration, record, report):
            commits = shadow.counters()["commits"]
            result = original(iteration, record, report)
            if shadow.counters()["commits"] > commits:
                window_at_commit.append(runtime.watchdog.state_dict())
            return result

        runtime._shadow_step = spy
        runtime.run(14)
        assert window_at_commit == [{"errors": [], "faults": [], "armed": True}]

    def test_membership_change_aborts_probation(self, setting):
        """Losing a GPU mid-probation voids the comparison: the anchor plan
        was searched for a fleet that no longer exists."""
        shadow = ShadowPlanner(config=ShadowConfig(rollback_threshold=0.30))
        runtime = make_runtime(
            setting, shadow=shadow, drift_schedule=SUSTAINED,
            injector=ScriptedInjector({6: [gpu_lost(6, 1)]}),
        )
        runtime.run(12)
        counters = shadow.counters()
        assert counters["promotions"] == 1
        assert counters["aborts"] == 1
        assert counters["commits"] == 0 and counters["rollbacks"] == 0
        assert not shadow.in_probation
        assert not runtime.watchdog._suppressed

    def test_cycle_is_bit_identical_under_seed(self, setting):
        first = make_runtime(setting, shadow=ShadowPlanner(), drift_schedule=REGRESSING)
        second = make_runtime(setting, shadow=ShadowPlanner(), drift_schedule=REGRESSING)
        r1, r2 = first.run(14), second.run(14)
        assert trail(r1) == trail(r2)
        assert first.shadow.state_dict() == second.shadow.state_dict()

    def test_watchdog_suppressed_exactly_during_probation(self, setting):
        shadow = ShadowPlanner(config=ShadowConfig(rollback_threshold=0.30))
        runtime = make_runtime(setting, shadow=shadow, drift_schedule=SUSTAINED)
        suppressed_at = []
        original = runtime._shadow_step

        def spy(iteration, record, report):
            result = original(iteration, record, report)
            if runtime.watchdog._suppressed:
                suppressed_at.append(iteration)
            return result

        runtime._shadow_step = spy
        runtime.run(14)
        assert suppressed_at, "probation never opened"
        # Suppression covers a contiguous probation window, then lifts.
        assert suppressed_at == list(range(min(suppressed_at), max(suppressed_at) + 1))
        assert not runtime.watchdog._suppressed

    def test_shadow_metrics_exported(self, setting):
        shadow = ShadowPlanner()
        runtime = make_runtime(setting, shadow=shadow, drift_schedule=REGRESSING)
        runtime.run(14)
        rendered = runtime.telemetry.prometheus_text()
        assert "rap_shadow_candidates_total" in rendered
        assert "rap_shadow_promotions_total" in rendered
        assert "rap_shadow_rollbacks_total" in rendered
        assert 'rap_shadow_probation_outcomes_total{outcome="rolled_back"}' in rendered


class TestTransparencyWhenDetached:
    def test_no_shadow_matches_plain_run(self, setting):
        """shadow=None leaves every path untouched: same trajectory, same
        checkpoint bytes, same journal shape as before the feature existed."""
        plain = make_runtime(setting, drift_schedule=REGRESSING)
        detached = make_runtime(setting, shadow=None, drift_schedule=REGRESSING)
        assert trail(plain.run(14)) == trail(detached.run(14))
        state = detached.state_dict()
        assert "shadow" not in state

    def test_attached_but_quiet_shadow_never_perturbs_live_run(self, setting):
        """With no drift the guardrail declines every candidate, and the
        live trajectory is identical to a run without the subsystem."""
        plain = make_runtime(setting)
        shadowed = make_runtime(setting, shadow=ShadowPlanner())
        assert trail(plain.run(10)) == trail(shadowed.run(10))
        assert shadowed.shadow.counters()["promotions"] == 0


class TestResumeMidProbation:
    def test_kill_inside_probation_replays_outcome(self, setting, tmp_path):
        """A crash between promotion and settlement resumes into the open
        probation and reaches the same outcome at the same iteration."""
        graphs, workload = setting

        def fresh_shadow():
            # Sustained drift + relaxed threshold: promotion at iteration 3,
            # probation spans 4..8, so the cadence checkpoint at 5 and the
            # kill both land inside the open transaction.
            return ShadowPlanner(config=ShadowConfig(rollback_threshold=0.30))

        def build(shadow, journal=None):
            return make_runtime(
                setting, shadow=shadow, drift_schedule=SUSTAINED, journal=journal
            )

        baseline_shadow = fresh_shadow()
        baseline_report = build(baseline_shadow).run(14)

        checkpoints = CheckpointManager(tmp_path / "ckpts")
        journal = RunJournal(tmp_path / "ckpts" / "journal.jsonl")
        killed_shadow = fresh_shadow()
        with journal:
            runtime = build(killed_shadow, journal=journal)
            with pytest.raises(SimulatedKill):
                runtime.run(14, checkpoints=checkpoints, checkpoint_every=5, kill_after=6)
        assert killed_shadow.in_probation

        snapshot = checkpoints.latest()
        assert snapshot is not None
        assert "probation" in snapshot.state["shadow"]
        journal = RunJournal(tmp_path / "ckpts" / "journal.jsonl")
        resumed_shadow = fresh_shadow()
        with journal:
            resumed, report, start = FaultTolerantRuntime.restore(
                snapshot,
                graphs,
                workload,
                lambda wl: RapPlanner(wl),
                journal=journal,
                telemetry=TelemetrySession(
                    drift_detector=DriftDetector(threshold=0.25, window=3)
                ),
                drift_schedule=SUSTAINED,
                shadow=resumed_shadow,
            )
            assert resumed_shadow.in_probation
            report = resumed.run(
                14 - start, start_iteration=start, report=report,
                checkpoints=checkpoints, checkpoint_every=5,
            )
        assert resumed_shadow.counters() == baseline_shadow.counters()
        assert trail(report) == trail(baseline_report)
        records = RunJournal.read(tmp_path / "ckpts" / "journal.jsonl")
        errors, _ = validate_records(records)
        assert errors == []

    def test_restore_repins_anchor(self, setting, tmp_path):
        """A resumed mid-probation run re-pins the anchor so cadence
        checkpoints cannot prune the rollback target (pins are in-memory)."""
        graphs, workload = setting
        config = ShadowConfig(rollback_threshold=0.30)
        checkpoints = CheckpointManager(tmp_path / "ckpts")
        runtime = make_runtime(
            setting, shadow=ShadowPlanner(config=config), drift_schedule=SUSTAINED
        )
        with pytest.raises(SimulatedKill):
            runtime.run(14, checkpoints=checkpoints, checkpoint_every=5, kill_after=6)
        anchor_name = runtime.shadow.anchor["directory"]
        assert anchor_name in checkpoints._pinned

        fresh = CheckpointManager(tmp_path / "ckpts")  # pins do not persist
        assert anchor_name not in fresh._pinned
        snapshot = fresh.latest()
        shadow = ShadowPlanner(config=config)
        resumed, report, start = FaultTolerantRuntime.restore(
            snapshot, graphs, workload, lambda wl: RapPlanner(wl),
            telemetry=TelemetrySession(
                drift_detector=DriftDetector(threshold=0.25, window=3)
            ),
            drift_schedule=SUSTAINED,
            shadow=shadow,
        )
        resumed.run(14 - start, start_iteration=start, report=report,
                    checkpoints=fresh, checkpoint_every=5)
        # run() re-pinned the anchor on entry; by now probation has settled
        # and the anchor was unpinned again.
        assert not shadow.in_probation
        assert anchor_name not in fresh._pinned
