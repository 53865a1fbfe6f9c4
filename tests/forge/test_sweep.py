"""Sweep harness: scoring, crash isolation, and the gated scorecard."""

import json
import os
import time

import pytest

from repro.forge import (
    GATE_CRITERIA,
    ScenarioForge,
    SweepConfig,
    build_scorecard,
    run_scenario,
    sweep,
    write_scorecard,
)
import importlib

# `repro.forge.sweep` the attribute is the sweep *function* (re-exported by
# the package); fetch the module itself for monkeypatching.
sweep_mod = importlib.import_module("repro.forge.sweep")


@pytest.fixture(scope="module")
def one_row():
    return run_scenario(ScenarioForge().generate(1))


class TestRunScenario:
    def test_row_schema(self, one_row):
        row = one_row
        assert row["status"] == "ok"
        assert row["completed"]
        assert row["plan_quality"]["ratio"] >= 1.0
        assert row["plan_quality"]["oracle_strategy"] in (
            "rap",
            "data_parallel",
            "data_locality",
        )
        assert 0.0 <= row["recovery"]["fraction"]
        assert 0 <= row["ladder"]["max_depth"] <= 4
        assert row["resume"] == {"checked": False, "identical": None}

    def test_row_is_json_serializable(self, one_row):
        assert json.loads(json.dumps(one_row)) == one_row

    def test_resume_check_replays_bit_identically(self):
        row = run_scenario(ScenarioForge().generate(3), check_resume=True)
        assert row["resume"] == {"checked": True, "identical": True}


class TestIsolation:
    def test_inline_failure_becomes_an_error_row(self, monkeypatch):
        scenario = ScenarioForge().generate(2)

        def boom(*args, **kwargs):
            raise RuntimeError("planner exploded")

        monkeypatch.setattr(sweep_mod, "run_scenario", boom)
        row = sweep_mod._run_inline(scenario, check_resume=False)
        assert row["status"] == "error"
        assert "planner exploded" in row["error"]

    def test_child_crash_becomes_a_crash_row(self, monkeypatch, tmp_path):
        scenario = ScenarioForge().generate(2)

        def die(*args, **kwargs):
            os._exit(17)  # a hard death no try/except can catch

        monkeypatch.setattr(sweep_mod, "run_scenario", die)
        (row,) = sweep_mod._run_isolated([(scenario, False)], timeout_s=60.0, workdir=tmp_path)
        assert row["status"] == "crash"
        assert "17" in row["error"]

    def test_hung_child_times_out(self, monkeypatch, tmp_path):
        scenario = ScenarioForge().generate(2)

        def hang(*args, **kwargs):
            time.sleep(300)

        monkeypatch.setattr(sweep_mod, "run_scenario", hang)
        start = time.monotonic()
        (row,) = sweep_mod._run_isolated([(scenario, False)], timeout_s=1.0, workdir=tmp_path)
        assert row["status"] == "timeout"
        assert time.monotonic() - start < 30


class TestSweep:
    def test_small_inline_sweep_end_to_end(self, tmp_path):
        config = SweepConfig(seeds=3, start_seed=1, jobs=0, resume_check_every=100)
        scorecard = sweep(config)
        assert scorecard["admission"]["generated"] == 3
        assert scorecard["admission"]["admitted"] + scorecard["admission"]["rejected"] == 3
        assert len(scorecard["scenarios"]) == scorecard["admission"]["admitted"]
        assert set(scorecard["dimensions"]) == set(GATE_CRITERIA)
        path = write_scorecard(scorecard, tmp_path / "BENCH_scenarios.json")
        assert json.loads(path.read_text())["format_version"] == scorecard["format_version"]


    def test_iterations_cut_clips_every_schedule(self):
        """A shortened sweep runs every seed shorter: scheduled faults and
        drift past the cut are dropped, not audited into rejections."""
        scorecard = sweep(SweepConfig(seeds=4, iterations=6, resume_check_every=100))
        assert scorecard["admission"]["admitted"] == 4, scorecard["admission"]
        assert [row["iterations"] for row in scorecard["scenarios"]] == [6] * 4
        assert scorecard["pass"], scorecard["dimensions"]

    def test_jobs_start_a_whole_batch_before_joining(self, monkeypatch):
        """--jobs N runs N children at once, and the scorecard does not
        depend on N."""
        log = []

        class RecordingProcess:
            """Runs the child in-process on start(); logs starts and joins."""

            exitcode = 0

            def __init__(self, target, args):
                self.target, self.args = target, args

            def start(self):
                log.append(("start", self.args[2]))
                self.target(*self.args)

            def join(self, timeout=None):
                log.append(("join", self.args[2]))

            def is_alive(self):
                return False

        monkeypatch.setattr(sweep_mod.multiprocessing, "Process", RecordingProcess)
        cards = {}
        for jobs in (1, 2):
            log.clear()
            cards[jobs] = sweep(
                SweepConfig(seeds=4, iterations=6, jobs=jobs, resume_check_every=100)
            )
            cards[jobs]["config"].pop("jobs")
            started = [path for kind, path in log if kind == "start"]
            batches = [started[i : i + jobs] for i in range(0, len(started), jobs)]
            assert log == [
                (kind, path) for batch in batches for kind in ("start", "join") for path in batch
            ]
        assert cards[1]["admission"]["admitted"] == 4
        assert cards[2] == cards[1]


class TestScorecard:
    def test_gates_pass_and_fail(self):
        good = {
            "status": "ok",
            "completed": True,
            "heterogeneous": False,
            "tags": [],
            "plan_quality": {"ratio": 1.0},
            "recovery": {"fraction": 0.1},
            "ladder": {"deepest_rung": "co_run"},
            "calibration": {"drifting": True, "improved": True},
            "resume": {"checked": True, "identical": True},
        }
        card = build_scorecard([good])
        assert card["pass"], card["dimensions"]

        bad = dict(good)
        bad["resume"] = {"checked": True, "identical": False}
        card = build_scorecard([good, bad])
        assert not card["pass"]
        assert not card["dimensions"]["resume_integrity"]["pass"]

    def test_statuses_and_rejections_are_counted(self):
        rows = [
            {"status": "ok", "completed": True, "tags": []},
            {"status": "timeout", "completed": False, "tags": []},
            {"status": "error", "completed": False, "tags": []},
        ]
        card = build_scorecard(rows, rejected=[{"scenario": "forge-00009", "ok": False}])
        assert card["statuses"] == {"ok": 1, "timeout": 1, "error": 1}
        assert card["admission"]["rejected"] == 1
        assert not card["dimensions"]["completion"]["pass"]
