"""End-to-end pins for the multi-tenant preprocessing service.

Covers the acceptance criteria of the service subsystem: single-tenant
bit-identity with a standalone runtime, the admit/preempt/resume
lifecycle, fault containment across tenants, warm re-admission through
the shared caches, queue/reject paths, per-tenant journals, and the
``serve`` CLI surface.
"""

import json

import pytest

from repro.cli import main
from repro.core import RapPlanner, plan_to_json
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.runtime import FaultTolerantRuntime
from repro.runtime.faults import KERNEL_FAILURE, FaultInjector, FaultSpec
from repro.runtime.journal import RunJournal, validate_records
from repro.runtime.report import ResilienceReport
from repro.service import JobState, PreprocessingService, TenantSpec, parse_tenant_specs
from repro.service.job import DEADLINE_CLASSES
from repro.telemetry.exposition import parse_prometheus_text


def _light(name, **overrides):
    kwargs = dict(name=name, plan_id=0, local_batch=1024, num_iterations=4)
    kwargs.update(overrides)
    return TenantSpec(**kwargs)


class TestSingleTenantBitIdentity:
    """A lone tenant through the service == the same workload standalone."""

    def test_reports_and_plan_match_standalone(self, tmp_path):
        spec = _light("solo", num_iterations=8, fault_rate=0.3, seed=7)

        service = PreprocessingService(tmp_path / "svc", num_gpus=2, telemetry=False)
        service.submit(spec)
        summary = service.run()
        job = service.jobs[0]
        assert summary.job("solo")["state"] == JobState.COMPLETED

        graphs, schema = build_plan(0, rows=1024)
        workload = TrainingWorkload(
            model_for_plan(graphs, schema), num_gpus=2, local_batch=1024
        )
        planner = RapPlanner(workload)
        plan = planner.plan(graphs)
        runtime = FaultTolerantRuntime(
            planner,
            graphs,
            plan=plan,
            injector=FaultInjector(
                specs=(FaultSpec(kind=KERNEL_FAILURE, rate=0.3),), seed=7
            ),
        )
        report = ResilienceReport()
        runtime.run(8, report=report)

        assert plan_to_json(job.runtime.plan) == plan_to_json(runtime.plan)
        assert job.runtime.plan_epoch == runtime.plan_epoch
        assert [r.to_dict() for r in job.report.iterations] == [
            r.to_dict() for r in report.iterations
        ]
        assert len(job.report.faults) == len(report.faults)
        assert job.report.replans == report.replans

    def test_share_is_full_leftover(self, tmp_path):
        service = PreprocessingService(tmp_path, num_gpus=2, telemetry=False)
        service.submit(_light("solo"))
        summary = service.run()
        assert summary.job("solo")["share"] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def lifecycle(tmp_path_factory):
    """The pinned 4-tenant scenario: admit, carve, preempt, resume."""
    root = tmp_path_factory.mktemp("service-lifecycle")
    service = PreprocessingService(root, num_gpus=2)
    service.submit(TenantSpec(name="alice", plan_id=2, local_batch=2048,
                              num_iterations=10, priority="prod", deadline="relaxed"))
    service.submit(TenantSpec(name="bob", plan_id=0, local_batch=1024,
                              num_iterations=12, priority="best_effort"))
    service.submit(TenantSpec(name="dave", plan_id=0, local_batch=1024,
                              num_iterations=12, priority="best_effort",
                              arrive_iteration=2))
    service.submit(TenantSpec(name="carol", plan_id=2, local_batch=2048,
                              num_iterations=6, priority="standard",
                              deadline="strict", arrive_iteration=4))
    summary = service.run()
    return service, summary


class TestLifecycle:
    def test_every_tenant_completes(self, lifecycle):
        _, summary = lifecycle
        assert all(e["state"] == JobState.COMPLETED for e in summary.jobs)

    def test_strict_arrival_preempts_newest_best_effort(self, lifecycle):
        _, summary = lifecycle
        assert summary.job("dave")["preemptions"] == 1
        assert summary.job("bob")["preemptions"] == 0
        history = summary.job("dave")["history"]
        assert any(h.startswith("preempted@4") for h in history)
        assert any(h.startswith("resumed@") for h in history)

    def test_preempted_tenant_still_finishes_all_iterations(self, lifecycle):
        _, summary = lifecycle
        dave = summary.job("dave")
        assert dave["iterations_done"] == 12

    def test_first_admissions_are_cold(self, lifecycle):
        _, summary = lifecycle
        assert summary.job("alice")["history"][0] == "admitted@0:cold"

    def test_preemption_is_metered_per_tenant(self, lifecycle):
        service, _ = lifecycle
        snapshot = service.metrics.registry.snapshot()
        series = snapshot["rap_service_preemptions_total"]["series"]
        assert [(s["labels"], s["value"]) for s in series] == [({"tenant": "dave"}, 1.0)]

    def test_per_tenant_journals_validate(self, lifecycle):
        service, _ = lifecycle
        for tenant in ("alice", "bob", "carol", "dave"):
            path = service.root / "tenants" / tenant / "journal.jsonl"
            records, flaws = RunJournal.scan(path)
            assert records, f"{tenant} journal is empty"
            assert flaws == []
            errors, _ = validate_records(records)
            assert errors == []

    def test_exported_metrics_parse_strictly(self, lifecycle):
        service, _ = lifecycle
        families = parse_prometheus_text(
            (service.root / "service_metrics.prom").read_text()
        )
        assert "rap_service_admissions_total" in families
        assert "rap_service_carve_share" in families
        # The shared caches surface in the same registry, tiered.
        assert "rap_cache_hits_total" in families

    def test_summary_artifact_round_trips(self, lifecycle):
        service, summary = lifecycle
        on_disk = json.loads((service.root / "service_summary.json").read_text())
        assert on_disk == json.loads(
            json.dumps(summary.to_dict(), sort_keys=True)
        )

    def test_service_journal_records_control_plane(self, lifecycle):
        service, _ = lifecycle
        kinds = [r["type"] for r in RunJournal.read(service.root / "service.jsonl")]
        assert "admit" in kinds and "preempt" in kinds
        assert "resume" in kinds and "complete" in kinds


class TestFaultContainment:
    """One tenant's faults never leak into another tenant's run."""

    @staticmethod
    def _victim_trace(root, noisy_fault_rate):
        service = PreprocessingService(root, num_gpus=2, telemetry=False)
        service.submit(_light("noisy", num_iterations=10, priority="best_effort",
                              fault_rate=noisy_fault_rate, seed=11))
        service.submit(_light("victim", num_iterations=10, seed=5))
        service.run()
        victim = next(j for j in service.jobs if j.name == "victim")
        return (
            plan_to_json(victim.runtime.plan),
            victim.runtime.plan_epoch,
            [r.to_dict() for r in victim.report.iterations],
        )

    def test_victim_is_bit_identical_with_and_without_noise(self, tmp_path):
        clean = self._victim_trace(tmp_path / "clean", 0.0)
        noisy = self._victim_trace(tmp_path / "noisy", 0.5)
        assert clean == noisy


class TestWarmReAdmission:
    def test_exact_rerun_hits_without_solver(self, tmp_path, solve_calls):
        first = PreprocessingService(tmp_path / "first", num_gpus=2, telemetry=False)
        first.submit(_light("alice", num_iterations=2))
        cold = first.run()
        assert cold.job("alice")["plan_source"] == "cold"
        solve_calls.clear()

        second = PreprocessingService(
            tmp_path / "second", num_gpus=2, telemetry=False,
            cache_dir=tmp_path / "first" / "cache",
        )
        second.submit(_light("alice", num_iterations=2))
        warm = second.run()
        assert warm.job("alice")["plan_source"] == "warm-exact"
        assert len(solve_calls) == 0  # no fusion solve at all
        assert plan_to_json(second.jobs[0].runtime.plan) == plan_to_json(
            first.jobs[0].runtime.plan
        )

    def test_isomorphic_tenant_hits_invariant_tier(self, tmp_path, solve_calls):
        first = PreprocessingService(tmp_path / "first", num_gpus=2, telemetry=False)
        first.submit(_light("alice", num_iterations=2))
        first.run()
        solve_calls.clear()

        twin = PreprocessingService(
            tmp_path / "twin", num_gpus=2, telemetry=False,
            cache_dir=tmp_path / "first" / "cache",
        )
        twin.submit(_light("zelda", num_iterations=2, rename=True))
        summary = twin.run()
        assert summary.job("zelda")["plan_source"] == "warm-invariant"
        assert len(solve_calls) == 0
        # The renamed plan landed under zelda's own names.
        assert "zelda" in plan_to_json(twin.jobs[0].runtime.plan)


    def test_torn_exact_entry_is_reported_cold(self, tmp_path):
        first = PreprocessingService(tmp_path / "first", num_gpus=2, telemetry=False)
        first.submit(_light("alice", num_iterations=2))
        first.run()
        entries = list((tmp_path / "first" / "cache").glob("*.plan.json"))
        assert entries
        for entry in entries:
            text = entry.read_text()
            entry.write_text(text[: len(text) // 2])

        second = PreprocessingService(
            tmp_path / "second", num_gpus=2, telemetry=False,
            cache_dir=tmp_path / "first" / "cache",
        )
        second.submit(_light("alice", num_iterations=2))
        summary = second.run()
        # The torn entry is a miss, so admission searched cold.
        assert summary.job("alice")["plan_source"] == "cold"
        assert summary.plan_cache["hits"] == 0
        assert plan_to_json(second.jobs[0].runtime.plan) == plan_to_json(
            first.jobs[0].runtime.plan
        )


class TestQueueing:
    def test_max_concurrent_queues_then_admits(self, tmp_path):
        service = PreprocessingService(
            tmp_path, num_gpus=2, max_concurrent=1, telemetry=False
        )
        service.submit(_light("a"))
        service.submit(_light("b"))
        summary = service.run()
        assert summary.ticks == 8  # strictly serial: 4 + 4
        b = summary.job("b")
        assert b["state"] == JobState.COMPLETED
        assert b["history"][0] == "queued@0"
        assert b["admitted_at"] == 4

    def test_impossible_deadline_alone_is_rejected(self, tmp_path, monkeypatch):
        # slowdown is >= 1 by construction, so a sub-1 cap can never hold.
        monkeypatch.setitem(DEADLINE_CLASSES, "strict", 0.99)
        service = PreprocessingService(tmp_path, num_gpus=2, telemetry=False)
        service.submit(_light("doomed", deadline="strict"))
        summary = service.run()
        doomed = summary.job("doomed")
        assert doomed["state"] == JobState.REJECTED
        assert doomed["history"] == ["rejected@0"]

    def test_duplicate_tenant_names_rejected(self, tmp_path):
        service = PreprocessingService(tmp_path, telemetry=False)
        service.submit(_light("a"))
        with pytest.raises(ValueError, match="already submitted"):
            service.submit(_light("a"))


class TestTenantSpecParsing:
    def test_full_grammar(self):
        specs = parse_tenant_specs(
            "alice:plan=2:batch=2048:class=prod:deadline=strict:arrive=3"
            ":iters=7:seed=9:faults=0.25:kind=latency_overrun:rename=1,bob"
        )
        alice, bob = specs
        assert alice.plan_id == 2 and alice.local_batch == 2048
        assert alice.priority == "prod" and alice.deadline == "strict"
        assert alice.arrive_iteration == 3 and alice.num_iterations == 7
        assert alice.seed == 9 and alice.fault_rate == 0.25
        assert alice.fault_kind == "latency_overrun" and alice.rename
        assert bob.priority == "standard" and not bob.rename

    @pytest.mark.parametrize("text", [
        "", "a:plan", "a:plan=9", "a:class=vip", "a,a", "a:mystery=1",
        "a:kind=gpu_lost:faults=0.1",
    ])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_tenant_specs(text)


class TestServeCli:
    def test_serve_end_to_end(self, tmp_path, capsys):
        root = tmp_path / "root"
        saved = tmp_path / "summary.json"
        code = main([
            "serve",
            "--tenants", "a:plan=0:batch=1024:iters=3,"
                         "b:plan=0:batch=1024:iters=3:class=best_effort",
            "--gpus", "2",
            "--service-root", str(root),
            "--save-summary", str(saved),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Preprocessing service" in out
        assert "admitted=2" in out or "completed=2" in out
        payload = json.loads(saved.read_text())
        assert {e["tenant"] for e in payload["jobs"]} == {"a", "b"}

        # Each tenant's journal passes the post-mortem validator.
        assert main(["journal", str(root / "tenants" / "a" / "journal.jsonl")]) == 0
        assert "journal OK" in capsys.readouterr().out

    def test_serve_rejects_bad_tenants(self, tmp_path, capsys):
        assert main(["serve", "--tenants", "a,a", "--service-root", str(tmp_path)]) != 0
        assert "unique" in capsys.readouterr().err

    def test_serve_rejects_negative_checkpoint_every(self, tmp_path, capsys):
        """It used to exit 0 and write no tenant checkpoints."""
        root = tmp_path / "root"
        code = main([
            "serve",
            "--tenants", "a:plan=0:batch=512:iters=3",
            "--gpus", "2",
            "--checkpoint-every", "-2",
            "--service-root", str(root),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "rap-repro: error: checkpoint_every must be >= 0, got -2\n"
        assert not root.exists()
        with pytest.raises(ValueError, match="checkpoint_every must be >= 0, got -2"):
            PreprocessingService(root, checkpoint_every=-2)

    def test_serve_rejects_gpu_lost_tenant(self, tmp_path, capsys):
        """The service owns the fleet; a tenant's runtime may not shrink it
        under the carve (it used to crash with an IndexError)."""
        code = main([
            "serve",
            "--tenants", "a:plan=1:iters=60:faults=0.05:kind=gpu_lost:seed=6,"
                         "b:plan=0:iters=30:arrive=10",
            "--gpus", "4",
            "--service-root", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("rap-repro: error: ") and "gpu_lost" in err
