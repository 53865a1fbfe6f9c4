"""Tests for iteration-consistent checkpoints, the run journal, and
bit-identical resume after a simulated kill."""

import json

import pytest

from repro.core import RapPlanner
from repro.core.serialization import plan_to_json
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.runtime import (
    GPU_LOST,
    KERNEL_FAILURE,
    PLAN_DRIFT,
    CheckpointError,
    CheckpointManager,
    FaultInjector,
    FaultSpec,
    FaultTolerantRuntime,
    LatencyWatchdog,
    ResilienceReport,
    RunJournal,
    ShadowConfig,
    ShadowPlanner,
    SimulatedKill,
    validate_records,
)
from repro.telemetry import LatencyDrift

NUM_GPUS = 3
BATCH = 512

SPECS = (
    FaultSpec(kind=GPU_LOST, rate=0.12),
    FaultSpec(kind=KERNEL_FAILURE, rate=0.4),
    FaultSpec(kind=PLAN_DRIFT, rate=0.2, magnitude=1.2),
)
SEED = 11


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(1, rows=BATCH)
    model = model_for_plan(graphs, schema)
    workload = TrainingWorkload(model, num_gpus=NUM_GPUS, local_batch=BATCH)
    return graphs, model, workload


def make_runtime(graphs, workload, journal=None):
    planner = RapPlanner(workload)
    return FaultTolerantRuntime(
        planner,
        graphs,
        injector=FaultInjector(specs=SPECS, seed=SEED),
        journal=journal,
    )


SAMPLE_STATE = {"plan_epoch": 2, "scale": 1.0, "cpu_only": False}
SAMPLE_REPORT = {"iterations": [], "transitions": []}


class TestCheckpointManager:
    def test_save_load_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        ckpt = manager.save(8, SAMPLE_STATE, '{"plan": true}', SAMPLE_REPORT)
        snapshot = manager.load(ckpt)
        assert snapshot.iteration == 8
        assert snapshot.state["plan_epoch"] == 2
        assert snapshot.state["next_iteration"] == 8
        assert snapshot.plan_text == '{"plan": true}'
        assert snapshot.report == SAMPLE_REPORT
        assert set(snapshot.manifest["files"]) == {"state.json", "plan.json", "report.json"}

    def test_manifest_digests_every_member(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        ckpt = manager.save(4, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        manifest = json.loads((ckpt / "MANIFEST.json").read_text())
        for name, meta in manifest["files"].items():
            text = (ckpt / name).read_text()
            assert meta["bytes"] == len(text.encode("utf-8"))
            assert len(meta["sha256"]) == 64

    def test_tampered_member_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        ckpt = manager.save(4, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        (ckpt / "state.json").write_text('{"evil": 1}')
        with pytest.raises(CheckpointError, match="digest mismatch"):
            manager.load(ckpt)

    def test_missing_member_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        ckpt = manager.save(4, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        (ckpt / "report.json").unlink()
        with pytest.raises(CheckpointError, match="missing member"):
            manager.load(ckpt)

    def test_unsealed_directory_is_not_a_checkpoint(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        ckpt = tmp_path / "ckpt-00000004"
        ckpt.mkdir()
        (ckpt / "state.json").write_text("{}")  # crash before manifest
        with pytest.raises(CheckpointError, match="no manifest"):
            manager.load(ckpt)
        assert manager.latest() is None

    def test_latest_falls_back_past_corruption(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(4, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        newest = manager.save(8, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        (newest / "MANIFEST.json").write_text("garb")
        snapshot = manager.latest()
        assert snapshot is not None and snapshot.iteration == 4

    def test_prune_keeps_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for step in (2, 4, 6, 8):
            manager.save(step, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        remaining = sorted(d.name for d in tmp_path.glob("ckpt-*"))
        assert remaining == ["ckpt-00000006", "ckpt-00000008"]

    def test_prune_never_touches_journal(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text('{"type": "run"}\n')
        manager = CheckpointManager(tmp_path, keep=1)
        manager.save(2, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        manager.save(4, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        assert journal.exists()

    def test_bad_format_version_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        ckpt = manager.save(4, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        manifest = json.loads((ckpt / "MANIFEST.json").read_text())
        manifest["format_version"] = 99
        (ckpt / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
            manager.load(ckpt)

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)


class TestJournalScanAndValidate:
    def test_scan_reports_torn_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"type": "run"}\n{"type": "replan", "plan_ep')
        records, flaws = RunJournal.scan(path)
        assert len(records) == 1
        assert len(flaws) == 1
        assert flaws[0].kind == "torn_tail" and flaws[0].line == 2

    def test_scan_flags_mid_file_corruption(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"type": "run"}\nnot json at all\n{"type": "checkpoint"}\n')
        records, flaws = RunJournal.scan(path)
        assert [r["type"] for r in records] == ["run", "checkpoint"]
        assert len(flaws) == 1
        assert flaws[0].kind == "corrupt" and flaws[0].line == 2

    def test_scan_flags_non_object_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('[1, 2]\n{"type": "run"}\n')
        records, flaws = RunJournal.scan(path)
        assert len(records) == 1 and flaws[0].kind == "corrupt"

    def test_validate_clean_promotion_pair(self):
        records = [
            {"type": "run"},
            {"type": "promotion", "iteration": 4, "plan_epoch": 1},
            {"type": "promotion_result", "iteration": 6, "plan_epoch": 2,
             "outcome": "rolled_back"},
        ]
        errors, warnings = validate_records(records)
        assert errors == [] and warnings == []

    def test_validate_open_probation_is_warning(self):
        records = [{"type": "run"}, {"type": "promotion", "plan_epoch": 1}]
        errors, warnings = validate_records(records)
        assert errors == []
        assert any("open probation" in w for w in warnings)

    def test_validate_rejects_nested_promotion(self):
        records = [
            {"type": "run"},
            {"type": "promotion", "plan_epoch": 1},
            {"type": "promotion", "plan_epoch": 2},
        ]
        errors, _ = validate_records(records)
        assert any("still in probation" in e for e in errors)

    def test_validate_rejects_orphan_result(self):
        records = [
            {"type": "run"},
            {"type": "promotion_result", "outcome": "committed"},
            {"type": "promotion_result", "outcome": "committed"},
        ]
        errors, _ = validate_records(records)
        # A run boundary makes the first result legal (replayed tail);
        # the second has provably no open promotion.
        assert len(errors) == 1 and "without a matching" in errors[0]

    def test_validate_rejects_unknown_outcome(self):
        records = [
            {"type": "run"},
            {"type": "promotion", "plan_epoch": 1},
            {"type": "promotion_result", "outcome": "exploded"},
        ]
        errors, _ = validate_records(records)
        assert any("unknown probation outcome" in e for e in errors)

    def test_validate_epoch_regression_needs_resume(self):
        regressed = [
            {"type": "run"},
            {"type": "replan", "plan_epoch": 2},
            {"type": "replan", "plan_epoch": 1},
        ]
        errors, _ = validate_records(regressed)
        assert any("regressed" in e for e in errors)
        replayed = [
            {"type": "run"},
            {"type": "replan", "plan_epoch": 2},
            {"type": "resume"},
            {"type": "replan", "plan_epoch": 1},
        ]
        errors, _ = validate_records(replayed)
        assert errors == []


class TestPinnedAnchors:
    """Rollback anchors (DESIGN.md §15) must survive pruning and never be
    mistaken for resume points."""

    def test_pinned_checkpoint_survives_prune(self, tmp_path):
        """Regression: an in-probation anchor outlives any number of cadence
        checkpoints, however old it gets."""
        manager = CheckpointManager(tmp_path, keep=2)
        anchor = manager.save(2, SAMPLE_STATE, "{}", SAMPLE_REPORT, tag="anchor")
        manager.pin(anchor)
        for step in (4, 6, 8, 10, 12):
            manager.save(step, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        assert anchor.exists()
        remaining = sorted(d.name for d in tmp_path.glob("ckpt-*"))
        assert remaining == ["ckpt-00000002-anchor", "ckpt-00000010", "ckpt-00000012"]

    def test_unpin_makes_checkpoint_prunable(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=1)
        anchor = manager.save(2, SAMPLE_STATE, "{}", SAMPLE_REPORT, tag="anchor")
        manager.pin(anchor)
        manager.save(4, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        assert anchor.exists()
        manager.unpin(anchor)
        manager.save(6, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        assert not anchor.exists()

    def test_pins_do_not_persist_across_managers(self, tmp_path):
        """Pins are in-memory by design: a crashed process cannot leak a pin
        that protects garbage forever. The shadow loop re-pins on restore."""
        first = CheckpointManager(tmp_path, keep=1)
        anchor = first.save(2, SAMPLE_STATE, "{}", SAMPLE_REPORT, tag="anchor")
        first.pin(anchor)
        second = CheckpointManager(tmp_path, keep=1)
        second.save(4, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        assert not anchor.exists()

    def test_latest_skips_tagged_anchors(self, tmp_path):
        """An anchor records pre-promotion state to roll back to; resuming
        from it would fork the timeline, so latest() must ignore it even
        when it is the newest complete directory."""
        manager = CheckpointManager(tmp_path)
        manager.save(2, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        manager.save(9, SAMPLE_STATE, "{}", SAMPLE_REPORT, tag="anchor")
        snapshot = manager.latest()
        assert snapshot is not None and snapshot.iteration == 2

    def test_only_anchors_means_no_resume_point(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(3, SAMPLE_STATE, "{}", SAMPLE_REPORT, tag="anchor")
        assert manager.latest() is None

    def test_anchor_does_not_collide_with_cadence_checkpoint(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        cadence = manager.save(5, SAMPLE_STATE, "{}", SAMPLE_REPORT)
        anchor = manager.save(5, {"plan_epoch": 9}, "{}", SAMPLE_REPORT, tag="anchor")
        assert cadence != anchor
        assert manager.load(cadence).state["plan_epoch"] == SAMPLE_STATE["plan_epoch"]
        assert manager.load(anchor).state["plan_epoch"] == 9

    def test_bad_tag_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        for tag in ("an chor", "a/b", "", "a\nb"):
            with pytest.raises(ValueError):
                manager.save(5, SAMPLE_STATE, "{}", SAMPLE_REPORT, tag=tag)


class TestRunJournal:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.append("run", iterations=8)
            journal.append("replan", iteration=3, plan_epoch=1)
        records = RunJournal.read(path)
        assert [r["type"] for r in records] == ["run", "replan"]
        assert records[1]["iteration"] == 3

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.append("run", iterations=8)
        with path.open("a") as handle:
            handle.write('{"type": "replan", "iter')  # crash mid-append
        records = RunJournal.read(path)
        assert [r["type"] for r in records] == ["run"]
        # A resumed run appends past the torn line; both survive reading.
        with RunJournal(path) as journal:
            journal.append("resume", iteration=4)
        assert [r["type"] for r in RunJournal.read(path)] == ["run", "resume"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert RunJournal.read(tmp_path / "nope.jsonl") == []


class TestWatchdogState:
    def test_round_trip(self):
        watchdog = LatencyWatchdog()
        watchdog.observe(1000.0, 2)
        watchdog.observe(1200.0, 0)
        state = watchdog.state_dict()
        restored = LatencyWatchdog()
        restored.load_state(state)
        assert restored.state_dict() == state


class TestKillAndResume:
    def test_kill_raises_before_checkpointing_the_boundary(self, setting, tmp_path):
        graphs, _, workload = setting
        runtime = make_runtime(graphs, workload)
        checkpoints = CheckpointManager(tmp_path)
        report = ResilienceReport()
        with pytest.raises(SimulatedKill) as excinfo:
            runtime.run(16, report=report, checkpoints=checkpoints,
                        checkpoint_every=4, kill_after=10)
        assert excinfo.value.iteration == 9
        # Iterations 0..9 ran; the last sealed checkpoint is at 8, not 10.
        assert len(report.iterations) == 10
        latest = checkpoints.latest()
        assert latest is not None and latest.iteration == 8

    def test_resume_is_bit_identical(self, setting, tmp_path):
        graphs, _, workload = setting

        # Uninterrupted reference run.
        straight = make_runtime(graphs, workload)
        straight_report = straight.run(16)

        # Killed run + resume from the surviving checkpoint.
        killed = make_runtime(graphs, workload)
        checkpoints = CheckpointManager(tmp_path)
        partial = ResilienceReport()
        with pytest.raises(SimulatedKill):
            killed.run(16, report=partial, checkpoints=checkpoints,
                       checkpoint_every=4, kill_after=10)
        snapshot = checkpoints.latest()
        assert snapshot is not None
        resumed, report, start = FaultTolerantRuntime.restore(
            snapshot,
            graphs,
            workload,
            lambda wl: RapPlanner(wl),
            injector=FaultInjector(specs=SPECS, seed=SEED),
        )
        assert start == 8
        resumed.run(16 - start, start_iteration=start, report=report)

        assert report.to_dict() == straight_report.to_dict()
        assert plan_to_json(resumed.plan) == plan_to_json(straight.plan)
        # The reference run crossed a membership change, so the resumed
        # trajectory replayed an elastic shrink bit-identically too.
        assert straight_report.membership_changes

    def test_resume_restores_control_state(self, setting, tmp_path):
        graphs, _, workload = setting
        runtime = make_runtime(graphs, workload)
        report = ResilienceReport()
        with pytest.raises(SimulatedKill):
            runtime.run(16, report=report,
                        checkpoints=CheckpointManager(tmp_path),
                        checkpoint_every=4, kill_after=10)
        snapshot = CheckpointManager(tmp_path).latest()
        resumed, _, _ = FaultTolerantRuntime.restore(
            snapshot, graphs, workload, lambda wl: RapPlanner(wl),
            injector=FaultInjector(specs=SPECS, seed=SEED),
        )
        assert resumed.plan_epoch == snapshot.state["plan_epoch"]
        assert resumed.cpu_only == snapshot.state["cpu_only"]
        assert [m.to_dict() for m in resumed._membership_log] == snapshot.state["membership"]
        assert resumed.workload.num_gpus == snapshot.state["workload"]["num_gpus"]

    def test_journal_narrates_kill_and_resume(self, setting, tmp_path):
        graphs, _, workload = setting
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            runtime = make_runtime(graphs, workload, journal=journal)
            report = ResilienceReport()
            with pytest.raises(SimulatedKill):
                runtime.run(16, report=report,
                            checkpoints=CheckpointManager(tmp_path),
                            checkpoint_every=4, kill_after=10)
        snapshot = CheckpointManager(tmp_path).latest()
        with RunJournal(path) as journal:
            resumed, report, start = FaultTolerantRuntime.restore(
                snapshot, graphs, workload, lambda wl: RapPlanner(wl),
                injector=FaultInjector(specs=SPECS, seed=SEED),
                journal=journal,
            )
            resumed.run(16 - start, start_iteration=start, report=report)
        types = [r["type"] for r in RunJournal.read(path)]
        assert types[0] == "run"
        assert "kill" in types and "resume" in types and "checkpoint" in types
        assert types.index("kill") < types.index("resume")
        # Everything after the kill came from the resumed process.
        assert types[types.index("resume") + 1] == "run"


FAULTS = (FaultSpec(kind=KERNEL_FAILURE, rate=0.2),)
DRIFT = (LatencyDrift("Clamp", 2.5, start_iteration=1),)


class TestResumeCompatibility:
    """``restore`` refuses a configuration the checkpoint was not cut for.

    Each case cuts a checkpoint under one configuration and resumes it
    under another. An empty spec list, drift schedule or shadow state is
    "none", so adding one on resume is as much a mismatch as changing it.
    """

    @staticmethod
    def config(setting, seed=SEED, specs=(), drift=(), shadow=None, gpus=NUM_GPUS,
               batch=BATCH):
        _, model, _ = setting
        return {
            "workload": TrainingWorkload(model, num_gpus=gpus, local_batch=batch),
            "injector": FaultInjector(specs, seed=seed),
            "drift_schedule": list(drift),
            "shadow": ShadowPlanner(config=shadow) if shadow is not None else None,
        }

    def cut(self, setting, tmp_path, **config):
        graphs = setting[0]
        options = self.config(setting, **config)
        runtime = FaultTolerantRuntime(
            RapPlanner(options.pop("workload")), graphs, **options
        )
        report = runtime.run(2)
        manager = CheckpointManager(tmp_path)
        runtime.save_checkpoint(manager, report, next_iteration=2)
        return manager.latest()

    def resume(self, setting, snapshot, **config):
        options = self.config(setting, **config)
        return FaultTolerantRuntime.restore(
            snapshot, setting[0], options.pop("workload"), RapPlanner, **options
        )

    @pytest.mark.parametrize("cut_with,resume_with,what", [
        ({}, {"seed": SEED + 1}, "fault seed"),
        ({}, {"specs": FAULTS}, "fault specs"),
        ({"specs": FAULTS}, {"specs": (FaultSpec(kind=KERNEL_FAILURE, rate=0.3),)},
         "fault specs"),
        ({"specs": FAULTS}, {}, "fault specs"),
        ({}, {"drift": DRIFT}, "drift schedule"),
        ({"drift": DRIFT}, {"drift": (LatencyDrift("Clamp", 3.0, start_iteration=1),)},
         "drift schedule"),
        ({"drift": DRIFT}, {}, "drift schedule"),
        ({}, {"batch": 2 * BATCH}, "batch"),
        ({}, {"gpus": NUM_GPUS - 1}, "GPU count"),
        ({}, {"shadow": ShadowConfig()}, "shadow config"),
        ({"shadow": ShadowConfig()}, {}, "shadow config"),
        ({"shadow": ShadowConfig()}, {"shadow": ShadowConfig(promote_margin=0.2)},
         "shadow config"),
    ], ids=[
        "seed", "specs-added", "specs-changed", "specs-dropped", "drift-added",
        "drift-changed", "drift-dropped", "batch", "fleet", "shadow-on",
        "shadow-off", "shadow-config",
    ])
    def test_mismatch_is_refused(self, setting, tmp_path, cut_with, resume_with, what):
        snapshot = self.cut(setting, tmp_path, **cut_with)
        with pytest.raises(ValueError, match=what):
            self.resume(setting, snapshot, **resume_with)

    def test_same_configuration_resumes(self, setting, tmp_path):
        config = {"specs": FAULTS, "drift": DRIFT, "shadow": ShadowConfig()}
        snapshot = self.cut(setting, tmp_path, **config)
        _, _, start = self.resume(setting, snapshot, **config)
        assert start == 2

    def test_legacy_checkpoint_without_echoes_is_not_compared(self, setting, tmp_path):
        snapshot = self.cut(setting, tmp_path)
        del snapshot.state["injector"], snapshot.state["workload"]
        _, _, start = self.resume(setting, snapshot, seed=SEED + 1)
        assert start == 2
