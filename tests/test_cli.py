"""Tests for the ``rap-repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.plan == 1 and args.gpus == 4 and args.batch == 4096

    def test_invalid_plan_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--plan", "9"])

    def test_mapping_choices(self):
        args = build_parser().parse_args(["plan", "--mapping", "data_parallel"])
        assert args.mapping == "data_parallel"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--mapping", "bogus"])


class TestPlanCommand:
    def test_plan_prints_summary(self, capsys):
        assert main(["plan", "--plan", "0", "--gpus", "2", "--batch", "1024"]) == 0
        out = capsys.readouterr().out
        assert "RAP plan" in out
        assert "training slowdown" in out

    def test_plan_gantt(self, capsys):
        main(["plan", "--plan", "0", "--gpus", "2", "--batch", "1024", "--gantt"])
        out = capsys.readouterr().out
        assert "emb_lookup_fwd" in out
        assert "=" in out

    def test_plan_emits_artifacts(self, tmp_path, capsys):
        code = tmp_path / "plan.py"
        trace = tmp_path / "trace.json"
        main([
            "plan", "--plan", "0", "--gpus", "2", "--batch", "1024",
            "--emit-code", str(code), "--emit-trace", str(trace),
        ])
        assert "SCHEDULE" in code.read_text()
        data = json.loads(trace.read_text())
        assert "traceEvents" in data

    def test_plan_no_fusion(self, capsys):
        main(["plan", "--plan", "0", "--gpus", "2", "--batch", "1024", "--no-fusion"])
        out = capsys.readouterr().out
        assert "fusion                 : off" in out


class TestCompareCommand:
    def test_compare_lists_all_systems(self, capsys):
        assert main(["compare", "--plan", "0", "--gpus", "2", "--batch", "1024"]) == 0
        out = capsys.readouterr().out
        for system in ("TorchArrow", "Sequential GPU", "CUDA stream", "MPS", "RAP", "Ideal"):
            assert system in out


class TestPredictorCommand:
    def test_predictor_small_run(self, capsys):
        assert main(["predictor", "--samples", "600"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out


class TestRunCommand:
    def test_clean_run_prints_report(self, capsys):
        assert main(["run", "--plan", "0", "--gpus", "2", "--batch", "1024",
                     "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fault-tolerant run" in out
        assert "iterations: 3 (0 degraded)" in out
        assert "replans: 0" in out

    def test_injection_degrades_and_reports(self, capsys):
        assert main(["run", "--plan", "0", "--gpus", "2", "--batch", "1024",
                     "--iterations", "10", "--seed", "3",
                     "--inject", "kernel_failure=0.9"]) == 0
        out = capsys.readouterr().out
        assert "kernel_failure@0.9" in out
        assert "kernel_failure" in out

    def test_compounding_plan_drift_completes(self, capsys):
        """Downward plan_drift steps compound until kernels run shorter than
        their launch overhead; the run must still complete."""
        assert main(["run", "--plan", "1", "--iterations", "100",
                     "--inject", "plan_drift=0.1"]) == 0
        assert "iterations: 100" in capsys.readouterr().out

    def test_seed_makes_runs_reproducible(self, capsys):
        argv = ["run", "--plan", "0", "--gpus", "2", "--batch", "1024",
                "--iterations", "8", "--seed", "17", "--inject", "kernel_failure=0.7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_save_and_load_report(self, tmp_path, capsys):
        artifact = tmp_path / "report.json"
        assert main(["run", "--plan", "0", "--gpus", "2", "--batch", "1024",
                     "--iterations", "4", "--inject", "kernel_failure=0.5",
                     "--save-report", str(artifact)]) == 0
        capsys.readouterr()
        data = json.loads(artifact.read_text())
        assert "resilience" in data
        assert len(data["resilience"]["iterations"]) == 4
        # The artifact doubles as a loadable plan.
        assert main(["run", "--plan", "0", "--gpus", "2", "--batch", "1024",
                     "--iterations", "2", "--load-plan", str(artifact)]) == 0

    def test_inject_full_spec_parses(self):
        from repro.cli import _parse_inject

        spec = _parse_inject("latency_overrun=0.3:4.0:0.5")
        assert spec.kind == "latency_overrun"
        assert spec.rate == 0.3
        assert spec.magnitude == 4.0
        assert spec.persistence == 0.5


class TestErrorHandling:
    def test_unknown_fault_kind_is_one_line_error(self, capsys):
        code = main(["run", "--plan", "0", "--gpus", "2", "--batch", "1024",
                     "--inject", "gremlins=0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("rap-repro: error:")
        assert "gremlins" in captured.err
        assert "Traceback" not in captured.err

    def test_malformed_inject_spec_rejected(self, capsys):
        assert main(["run", "--plan", "0", "--gpus", "2", "--batch", "1024",
                     "--inject", "kernel_failure"]) == 2
        assert "rap-repro: error:" in capsys.readouterr().err

    def test_missing_plan_file_is_one_line_error(self, capsys, tmp_path):
        missing = tmp_path / "ghost.json"
        code = main(["run", "--plan", "0", "--gpus", "2", "--batch", "1024",
                     "--load-plan", str(missing)])
        captured = capsys.readouterr()
        assert code == 2
        assert str(missing) in captured.err
        assert "Traceback" not in captured.err

    def test_corrupt_plan_file_is_one_line_error(self, capsys, tmp_path):
        artifact = tmp_path / "plan.json"
        assert main(["plan", "--plan", "0", "--gpus", "2", "--batch", "1024",
                     "--save-json", str(artifact)]) == 0
        artifact.write_text(artifact.read_text()[:120])
        capsys.readouterr()
        code = main(["run", "--plan", "0", "--gpus", "2", "--batch", "1024",
                     "--load-plan", str(artifact)])
        captured = capsys.readouterr()
        assert code == 2
        assert "not valid JSON" in captured.err

    def test_invalid_args_exit_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--plan", "9"])
        assert exc.value.code != 0


class TestClobberProtection:
    """Existing artifacts are never silently overwritten without --force."""

    BASE = ["--plan", "0", "--gpus", "2", "--batch", "1024"]

    def test_save_json_refuses_existing_file(self, capsys, tmp_path):
        artifact = tmp_path / "plan.json"
        artifact.write_text("precious")
        code = main(["plan", *self.BASE, "--save-json", str(artifact)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("rap-repro: error:")
        assert "--force" in captured.err
        assert "Traceback" not in captured.err
        assert artifact.read_text() == "precious"

    def test_save_json_force_overwrites(self, capsys, tmp_path):
        artifact = tmp_path / "plan.json"
        artifact.write_text("precious")
        assert main(["plan", *self.BASE, "--save-json", str(artifact), "--force"]) == 0
        assert json.loads(artifact.read_text())["format_version"] >= 1

    def test_save_report_refuses_existing_file(self, capsys, tmp_path):
        artifact = tmp_path / "report.json"
        artifact.write_text("precious")
        code = main(["run", *self.BASE, "--iterations", "2",
                     "--save-report", str(artifact)])
        captured = capsys.readouterr()
        assert code == 2
        assert "--force" in captured.err
        assert artifact.read_text() == "precious"
        # The refusal happens before planning: no partial output either.
        assert "Fault-tolerant run" not in captured.out

    def test_save_report_force_overwrites(self, capsys, tmp_path):
        artifact = tmp_path / "report.json"
        artifact.write_text("precious")
        assert main(["run", *self.BASE, "--iterations", "2",
                     "--save-report", str(artifact), "--force"]) == 0
        assert "resilience" in json.loads(artifact.read_text())

    def test_fresh_file_needs_no_force(self, capsys, tmp_path):
        artifact = tmp_path / "plan.json"
        assert main(["plan", *self.BASE, "--save-json", str(artifact)]) == 0
        assert artifact.exists()


class TestPlanCacheFlag:
    BASE = ["--plan", "0", "--gpus", "2", "--batch", "1024"]

    def test_warm_cache_reports_hit_and_identical_plan(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        assert main(["plan", *self.BASE, "--plan-cache", str(cache),
                     "--save-json", str(cold_json)]) == 0
        cold_out = capsys.readouterr().out
        assert "plan cache" in cold_out and "1 miss(es)" in cold_out
        # A second invocation (fresh process state modeled by a fresh main
        # call) hits the disk tier and emits a bit-identical artifact.
        assert main(["plan", *self.BASE, "--plan-cache", str(cache),
                     "--save-json", str(warm_json)]) == 0
        warm_out = capsys.readouterr().out
        assert "1 hit(s)" in warm_out
        assert warm_json.read_text() == cold_json.read_text()

    def test_no_cache_no_stats_block(self, capsys):
        assert main(["plan", *self.BASE]) == 0
        assert "Planner fast path" not in capsys.readouterr().out


class TestSeedThreading:
    def test_random_plan_seed_changes_workload(self, capsys):
        assert main(["plan", "--random-plan", "--seed", "1",
                     "--gpus", "2", "--batch", "1024"]) == 0
        first = capsys.readouterr().out
        assert main(["plan", "--random-plan", "--seed", "2",
                     "--gpus", "2", "--batch", "1024"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_random_plan_same_seed_is_deterministic(self, capsys):
        argv = ["plan", "--random-plan", "--seed", "5", "--gpus", "2", "--batch", "1024"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestCheckpointResume:
    BASE = ["run", "--plan", "0", "--gpus", "2", "--batch", "1024",
            "--seed", "11", "--inject", "kernel_failure=0.5", "--inject", "plan_drift=0.2:1.2"]

    def test_kill_then_resume_matches_straight_run(self, tmp_path, capsys):
        straight = tmp_path / "straight.json"
        assert main([*self.BASE, "--iterations", "12", "--save-report", str(straight)]) == 0
        capsys.readouterr()

        ckpt = tmp_path / "ckpt"
        resumed = tmp_path / "resumed.json"
        code = main([*self.BASE, "--iterations", "12",
                     "--checkpoint-dir", str(ckpt), "--checkpoint-every", "4",
                     "--kill-after-iter", "8"])
        captured = capsys.readouterr()
        assert code == 3
        assert "killed after iteration 7" in captured.err
        assert "--resume" in captured.err

        assert main([*self.BASE, "--iterations", "12",
                     "--checkpoint-dir", str(ckpt), "--checkpoint-every", "4",
                     "--resume", "--save-report", str(resumed)]) == 0
        out = capsys.readouterr().out
        assert "resumed at iteration" in out

        # The artifact embeds both the final plan and the resilience
        # report; the resumed run reproduces the straight run exactly.
        straight_data = json.loads(straight.read_text())
        resumed_data = json.loads(resumed.read_text())
        assert resumed_data["resilience"] == straight_data["resilience"]
        assert resumed_data == straight_data

    def test_journal_written_alongside_checkpoints(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main([*self.BASE, "--iterations", "6",
                     "--checkpoint-dir", str(ckpt), "--checkpoint-every", "3"]) == 0
        capsys.readouterr()
        journal = ckpt / "journal.jsonl"
        assert journal.exists()
        types = [json.loads(line)["type"] for line in journal.read_text().splitlines()]
        assert types[0] == "run"
        assert "checkpoint" in types
        assert sorted(d.name for d in ckpt.glob("ckpt-*"))  # sealed checkpoint dirs

    def test_resume_without_checkpoint_dir_is_an_error(self, capsys):
        assert main([*self.BASE, "--iterations", "4", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "rap-repro: error:" in err and "--checkpoint-dir" in err

    def test_resume_with_no_valid_checkpoint_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "ckpt"
        assert main([*self.BASE, "--iterations", "4",
                     "--checkpoint-dir", str(empty), "--resume"]) == 2
        assert "no valid checkpoint" in capsys.readouterr().err

    def test_resume_refuses_mismatched_seed(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        code = main([*self.BASE, "--iterations", "12",
                     "--checkpoint-dir", str(ckpt), "--checkpoint-every", "4",
                     "--kill-after-iter", "8"])
        assert code == 3
        capsys.readouterr()
        mismatched = [a if a != "11" else "99" for a in self.BASE]
        assert main([*mismatched, "--iterations", "12",
                     "--checkpoint-dir", str(ckpt), "--resume"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_resume_refuses_faults_the_checkpoint_lacks(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        argv = ["run", "--plan", "0", "--gpus", "2", "--batch", "512",
                "--iterations", "12", "--checkpoint-dir", str(ckpt),
                "--checkpoint-every", "4"]
        assert main([*argv, "--kill-after-iter", "8"]) == 3
        capsys.readouterr()
        assert main([*argv, "--resume", "--inject", "kernel_failure=0.9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rap-repro: error:") and "fault specs" in err
        assert err.count("\n") == 1

    def test_kill_without_checkpoint_dir_is_an_error(self, capsys):
        assert main([*self.BASE, "--iterations", "4", "--kill-after-iter", "2"]) == 2
        assert "--kill-after-iter requires --checkpoint-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--verify-data", "--engine-workers",
                                      "--checkpoint-every"])
    def test_negative_count_is_an_error(self, flag, capsys):
        assert main([*self.BASE, "--iterations", "2", flag, "-1"]) == 2
        err = capsys.readouterr().err
        assert err == f"rap-repro: error: {flag} must be >= 0, got -1\n"

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_iterations_is_refused_before_any_output(self, count, capsys):
        assert main([*self.BASE, "--iterations", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rap-repro: error: --iterations must be >= 1, got {count}\n"

    def test_resume_past_the_end_is_an_error(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main([*self.BASE, "--iterations", "8",
                     "--checkpoint-dir", str(ckpt), "--checkpoint-every", "4"]) == 0
        capsys.readouterr()
        assert main([*self.BASE, "--iterations", "4",
                     "--checkpoint-dir", str(ckpt), "--resume"]) == 2
        assert "already at iteration" in capsys.readouterr().err


class TestTelemetryFlags:
    BASE = ["run", "--plan", "1", "--gpus", "2", "--batch", "1024"]

    def test_drift_spec_parses(self):
        from repro.cli import _parse_drift

        d = _parse_drift("Clamp=2.5:3:8")
        assert (d.op_type, d.factor, d.start_iteration, d.end_iteration) == (
            "Clamp", 2.5, 3, 8,
        )
        assert _parse_drift("Logit=1.5").start_iteration == 0
        assert _parse_drift("FillNull=2:4").end_iteration is None

    def test_drift_spec_rejects_unknown_op(self, capsys):
        assert main([*self.BASE, "--iterations", "2", "--drift", "NotAnOp=2.0"]) == 2
        assert "unknown op" in capsys.readouterr().err

    def test_drift_spec_rejects_malformed(self, capsys):
        assert main([*self.BASE, "--iterations", "2", "--drift", "Clamp"]) == 2
        assert "drift spec" in capsys.readouterr().err

    def test_metrics_dir_conflicts_with_no_telemetry(self, capsys):
        assert main([*self.BASE, "--iterations", "2", "--no-telemetry",
                     "--metrics-dir", "x"]) == 2
        assert "--no-telemetry" in capsys.readouterr().err

    def test_run_emits_metrics_artifacts(self, tmp_path, capsys):
        import json

        from repro.telemetry import parse_prometheus_text, validate_chrome_trace

        metrics = tmp_path / "metrics"
        assert main([*self.BASE, "--iterations", "4",
                     "--metrics-dir", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "Telemetry" in out
        assert "iterations" in out
        parsed = parse_prometheus_text((metrics / "metrics.prom").read_text())
        assert "rap_iterations_total" in parsed
        validate_chrome_trace(json.loads((metrics / "trace.json").read_text()))
        assert (metrics / "metrics.jsonl").exists()

    def test_drift_run_reports_calibration(self, capsys):
        assert main([*self.BASE, "--iterations", "10",
                     "--drift", "Clamp=2.5:2"]) == 0
        out = capsys.readouterr().out
        assert "drift events" in out
        assert "Clamp=2.500" in out
        assert "replans: 1" in out

    def test_no_telemetry_output_identical_to_default(self, capsys):
        """--no-telemetry must not change the simulated run, only reporting."""
        argv = [*self.BASE, "--iterations", "4", "--seed", "5"]
        assert main(argv) == 0
        with_t = capsys.readouterr().out
        assert main([*argv, "--no-telemetry"]) == 0
        without_t = capsys.readouterr().out
        assert "Telemetry" in with_t and "Telemetry" not in without_t
        # The report block above the telemetry section is byte-identical.
        assert without_t.split("Telemetry")[0].rstrip() in with_t

    def test_cache_stats_show_disk_tier(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        base = ["plan", "--plan", "0", "--gpus", "2", "--batch", "1024",
                "--plan-cache", str(cache)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "1 hit(s) (1 disk-tier)" in out


class TestIngestCli:
    BASE = ["run", "--plan", "0", "--gpus", "2", "--batch", "128",
            "--iterations", "4"]

    def _csv(self, tmp_path):
        from repro.ingest import source, write_csv

        src = source("synthetic://kaggle?batch=128&batches=2&seed=11")
        path = tmp_path / "day0.csv"
        write_csv(str(path), [src.batch(i) for i in range(2)])
        return path

    def test_run_with_synthetic_source_prints_ingest_summary(self, capsys):
        assert main([*self.BASE, "--source",
                     "synthetic://kaggle?batch=128&batches=3"]) == 0
        out = capsys.readouterr().out
        assert "Streaming ingest" in out
        assert "batches ingested : 4" in out
        assert "source epochs" in out

    def test_run_with_csv_source_wraps_epochs_and_verifies(self, tmp_path, capsys):
        # 4 iterations over a 2-batch file: the feeder must re-iterate
        # (the old single-use bug) and the verifier sees real CSV batches.
        path = self._csv(tmp_path)
        assert main([*self.BASE, "--source", f"csv://{path}?batch=128",
                     "--verify-data", "2"]) == 0
        out = capsys.readouterr().out
        assert "Streaming ingest" in out
        assert "source epochs    : 2" in out
        assert "verification" in out

    def test_backpressure_metrics_exported(self, tmp_path, capsys):
        from repro.telemetry import parse_prometheus_text

        metrics = tmp_path / "metrics"
        assert main([*self.BASE, "--source",
                     "synthetic://kaggle?batch=128&batches=4",
                     "--overload-policy", "drop_oldest",
                     "--queue-capacity", "2",
                     "--metrics-dir", str(metrics)]) == 0
        parsed = parse_prometheus_text((metrics / "metrics.prom").read_text())
        for family in ("rap_ingest_batches_total", "rap_ingest_queue_depth",
                       "rap_ingest_queue_wait_seconds",
                       "rap_ingest_producer_stall_ratio"):
            assert family in parsed, family

    @pytest.mark.parametrize("flag,value", [
        ("--overload-policy", "block"),
        ("--queue-capacity", "4"),
        ("--ingest-workers", "2"),
        ("--ingest-depth", "3"),
    ])
    def test_ingest_flags_require_source(self, capsys, flag, value):
        assert main([*self.BASE, flag, value]) == 2
        assert f"{flag} requires --source" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,message", [
        ("--queue-capacity", "queue capacity must be >= 1"),
        ("--ingest-depth", "depth must be at least 1"),
    ], ids=["queue-capacity", "ingest-depth"])
    def test_invalid_feeder_config_fails_before_the_run(self, capsys, flag, message):
        assert main([*self.BASE, "--source", "synthetic://kaggle?batch=128&batches=4",
                     flag, "0"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Fault-tolerant run" not in captured.out

    def test_source_batch_must_match_run_batch_when_verifying(self, capsys):
        assert main([*self.BASE, "--source", "synthetic://kaggle?batch=64&batches=3",
                     "--verify-data", "1"]) == 2
        err = capsys.readouterr().err
        assert "64" in err and "128" in err

    def test_bad_source_spec_is_one_line_error(self, capsys):
        assert main([*self.BASE, "--source", "carrier-pigeon://x"]) == 2
        assert "unknown source scheme" in capsys.readouterr().err


class TestShadowCli:
    BASE = ["run", "--plan", "2", "--gpus", "4", "--batch", "2048",
            "--iterations", "14",
            "--drift", "SigridHash=20:2", "--drift", "MapId=20:6"]

    def test_shadow_flags_require_shadow(self, capsys):
        assert main(["run", "--plan", "0", "--gpus", "2", "--batch", "1024",
                     "--iterations", "2", "--promote-margin", "0.2"]) == 2
        assert "--promote-margin requires --shadow" in capsys.readouterr().err

    def test_shadow_cycle_summary_and_journal(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main([*self.BASE, "--shadow", "--checkpoint-dir", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "Shadow promotion" in out
        assert "candidates evaluated" in out

        assert main(["journal", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "shadow_eval" in out
        assert "epoch 0 -> 1" in out
        assert "rolled_back" in out
        assert "journal OK" in out

    def test_journal_subcommand_exit_codes(self, tmp_path, capsys):
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"type": "run"}\n{"type": "replan", "plan_ep')
        assert main(["journal", str(torn)]) == 0
        out = capsys.readouterr().out
        assert "torn tail at line 2" in out

        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text('{"type": "run"}\ngarbage\n{"type": "checkpoint"}\n')
        assert main(["journal", str(corrupt)]) == 2
        assert "corrupt record at line 2" in capsys.readouterr().err

    def test_journal_missing_path_is_an_error(self, tmp_path, capsys):
        assert main(["journal", str(tmp_path / "nope")]) == 2
        assert "no journal at" in capsys.readouterr().err
