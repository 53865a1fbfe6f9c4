"""Tests for the fault-tolerant runtime: ladder rungs, recovery accounting,
bit-identical pass-through, and report serialization."""

import json

import pytest

from repro.core import RapPlanner, resilience_from_json
from repro.core.serialization import plan_to_json
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.runtime import (
    CO_RUN,
    CPU_FALLBACK,
    CPU_POOL_CRASH,
    FUSED_OOM,
    KERNEL_FAILURE,
    LATENCY_OVERRUN,
    PLAN_DRIFT,
    SEQUENTIAL,
    SHARD_RETRY,
    TRAILING,
    FaultEvent,
    FaultInjector,
    FaultSpec,
    FaultTolerantRuntime,
    LatencyWatchdog,
    ResilienceReport,
)


class ScriptedInjector:
    """Duck-typed injector replaying a hand-written fault schedule."""

    def __init__(self, schedule: dict):
        self.schedule = dict(schedule)

    def faults_for_iteration(self, iteration, plan):
        return list(self.schedule.get(iteration, []))


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(1, rows=1024)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=1024)
    planner = RapPlanner(workload)
    plan = planner.plan(graphs)
    clean = planner.evaluate(plan)
    return graphs, workload, planner, plan, clean


def make_runtime(setting, schedule=None, **kwargs):
    graphs, _, planner, plan, _ = setting
    kwargs.setdefault(
        "watchdog", LatencyWatchdog(error_threshold=1e9, fault_rate_threshold=1e9)
    )
    injector = ScriptedInjector(schedule or {})
    return FaultTolerantRuntime(planner, graphs, plan=plan, injector=injector, **kwargs)


def placed_sites(plan):
    return [
        (gpu, stage, k)
        for gpu, per_gpu in enumerate(plan.assignments_per_gpu)
        for stage in sorted(per_gpu)
        for k in per_gpu[stage]
    ]


def fused_site(plan):
    for gpu, stage, k in placed_sites(plan):
        if int(k.meta.get("members", 1)) > 1:
            return gpu, stage, k
    raise AssertionError("plan has no fused kernels")


class TestBitIdentical:
    def test_no_faults_matches_direct_evaluation_exactly(self, setting):
        _, _, planner, plan, clean = setting
        runtime = make_runtime(setting)
        for i in range(5):
            record, faults, transitions = runtime.run_iteration(i)
            assert faults == [] and transitions == []
            assert record.iteration_us == clean.iteration_us
            assert record.exposed_us == clean.exposed_preprocessing_us
            assert not record.degraded

    def test_default_injector_is_disabled(self, setting):
        graphs, _, planner, plan, clean = setting
        runtime = FaultTolerantRuntime(planner, graphs, plan=plan)
        report = runtime.run(3)
        assert report.num_faults == 0
        assert all(r.iteration_us == clean.iteration_us for r in report.iterations)


class TestKernelFailure:
    def test_shallow_failure_recovers_in_place(self, setting):
        _, _, _, plan, clean = setting
        gpu, stage, kernel = placed_sites(plan)[0]
        event = FaultEvent(KERNEL_FAILURE, iteration=0, gpu=gpu, stage=stage,
                           kernel=kernel.name, recover_after=1)
        runtime = make_runtime(setting, {0: [event]})
        record, faults, transitions = runtime.run_iteration(0)
        # Recovered at the co_run rung: no demotion, but the retry cost is real.
        assert transitions == []
        assert record.retries == 1
        assert record.backoff_us > 0
        assert record.recovery_us >= kernel.duration_us
        assert record.iteration_us >= clean.iteration_us
        assert record.degraded

    def test_deep_failure_demotes_to_shard_retry(self, setting):
        _, _, _, plan, _ = setting
        gpu, stage, kernel = placed_sites(plan)[0]
        event = FaultEvent(KERNEL_FAILURE, iteration=0, gpu=gpu, stage=stage,
                           kernel=kernel.name, recover_after=10)
        runtime = make_runtime(setting, {0: [event]})
        record, _, transitions = runtime.run_iteration(0)
        assert transitions, "exhausted retries must demote"
        assert transitions[0].from_rung == CO_RUN
        assert transitions[0].to_rung in (SHARD_RETRY, TRAILING)
        assert record.recovery_us > 0

    def test_persistent_failure_falls_to_cpu(self, setting):
        _, _, _, plan, clean = setting
        gpu, stage, kernel = placed_sites(plan)[0]
        event = FaultEvent(KERNEL_FAILURE, iteration=0, gpu=gpu, stage=stage,
                           kernel=kernel.name, recover_after=-1)
        runtime = make_runtime(setting, {0: [event]})
        record, _, transitions = runtime.run_iteration(0)
        assert [t.to_rung for t in transitions] == [TRAILING, SEQUENTIAL, CPU_FALLBACK]
        assert [k.name for k in runtime.cpu_evicted] == [kernel.name]
        assert record.cpu_fallback_us > 0

    def test_cpu_eviction_persists_across_iterations(self, setting):
        _, _, _, plan, clean = setting
        gpu, stage, kernel = placed_sites(plan)[0]
        event = FaultEvent(KERNEL_FAILURE, iteration=0, gpu=gpu, stage=stage,
                           kernel=kernel.name, recover_after=-1)
        runtime = make_runtime(setting, {0: [event]})
        runtime.run_iteration(0)
        record, faults, _ = runtime.run_iteration(1)
        assert faults == []
        assert runtime.cpu_evicted
        assert record.cpu_fallback_us > 0  # host pool keeps paying for the kernel


class TestLatencyOverrun:
    def test_unshardable_overrun_demotes_to_trailing(self, setting):
        _, _, _, plan, clean = setting
        gpu, stage, kernel = placed_sites(plan)[0]
        event = FaultEvent(LATENCY_OVERRUN, iteration=0, gpu=gpu, stage=stage,
                           kernel=kernel.name, magnitude=1000.0)
        runtime = make_runtime(setting, {0: [event]})
        record, _, transitions = runtime.run_iteration(0)
        assert transitions[-1].to_rung == TRAILING
        # A kernel inflated 1000x and exposed must dominate the iteration.
        assert record.exposed_us > clean.exposed_preprocessing_us
        assert record.iteration_us > clean.iteration_us

    def test_moderate_overrun_resharded_or_absorbed(self, setting):
        _, _, _, plan, clean = setting
        gpu, stage, kernel = placed_sites(plan)[0]
        event = FaultEvent(LATENCY_OVERRUN, iteration=0, gpu=gpu, stage=stage,
                           kernel=kernel.name, magnitude=4.0)
        runtime = make_runtime(setting, {0: [event]})
        record, _, transitions = runtime.run_iteration(0)
        # Either the inflated kernel still fits the stage budget (absorbed) or
        # it was sharded with the remainder trailing -- never dropped.
        assert record.iteration_us >= clean.iteration_us
        for t in transitions:
            assert t.to_rung in (SHARD_RETRY, TRAILING)


class TestFusedOom:
    def test_oom_defuses_into_members(self, setting):
        _, _, _, plan, _ = setting
        gpu, stage, kernel = fused_site(plan)
        event = FaultEvent(FUSED_OOM, iteration=0, gpu=gpu, stage=stage,
                           kernel=kernel.name, recover_after=1)
        runtime = make_runtime(setting, {0: [event]})
        record, _, transitions = runtime.run_iteration(0)
        assert [t.to_rung for t in transitions] == [SHARD_RETRY]
        assert "de-fused" in transitions[0].reason
        assert record.recovery_us >= kernel.duration_us  # the OOM'd launch

    def test_persistent_oom_walks_the_whole_ladder(self, setting):
        _, _, _, plan, _ = setting
        gpu, stage, kernel = fused_site(plan)
        event = FaultEvent(FUSED_OOM, iteration=0, gpu=gpu, stage=stage,
                           kernel=kernel.name, recover_after=-1)
        runtime = make_runtime(setting, {0: [event]})
        _, _, transitions = runtime.run_iteration(0)
        assert [t.to_rung for t in transitions] == [
            SHARD_RETRY, TRAILING, SEQUENTIAL, CPU_FALLBACK,
        ]
        # The eviction carries the fused kernel's members, not the fused shell.
        members = list(kernel.meta["member_kernels"])
        assert [k.name for k in runtime.cpu_evicted] == [m.name for m in members]


class TestHostFaults:
    def test_pool_crash_stalls_the_iteration(self, setting):
        _, _, _, plan, clean = setting
        event = FaultEvent(CPU_POOL_CRASH, iteration=0, magnitude=5.0)
        runtime = make_runtime(setting, {0: [event]})
        record, _, _ = runtime.run_iteration(0)
        assert record.cpu_fallback_us == pytest.approx(5_000.0)
        assert record.iteration_us > clean.iteration_us
        assert record.degraded

    def test_plan_drift_inflates_later_iterations(self, setting):
        _, _, _, plan, clean = setting
        event = FaultEvent(PLAN_DRIFT, iteration=0, magnitude=2.0, recover_after=0)
        runtime = make_runtime(setting, {0: [event]})
        runtime.run_iteration(0)
        # The drifted scale sticks: the next (fault-free) iteration still
        # executes 2x-sized kernels against the same placement.
        record, faults, _ = runtime.run_iteration(1)
        assert faults == []
        assert record.iteration_us >= clean.iteration_us
        assert record.exposed_us >= clean.exposed_preprocessing_us


class TestSequentialFallback:
    def test_many_faults_suspend_co_running(self, setting):
        _, _, _, plan, _ = setting
        sites = placed_sites(plan)
        by_gpu = {}
        for gpu, stage, k in sites:
            by_gpu.setdefault(gpu, []).append((gpu, stage, k))
        gpu, targets = next((g, s) for g, s in by_gpu.items() if len(s) >= 3)
        events = [
            FaultEvent(KERNEL_FAILURE, iteration=0, gpu=g, stage=stage,
                       kernel=k.name, recover_after=1)
            for g, stage, k in targets[:3]
        ]
        runtime = make_runtime(setting, {0: [events[0], events[1], events[2]]})
        record, _, transitions = runtime.run_iteration(0)
        seq = [t for t in transitions if t.to_rung == SEQUENTIAL]
        assert seq and seq[0].kernel == "*" and seq[0].gpu == gpu
        assert record.degraded


class TestRunAndReport:
    def test_run_aggregates_everything(self, setting):
        graphs, _, planner, plan, _ = setting
        injector = FaultInjector(
            [
                FaultSpec(KERNEL_FAILURE, rate=0.5, persistence=0.2),
                FaultSpec(LATENCY_OVERRUN, rate=0.3, magnitude=3.0),
                FaultSpec(FUSED_OOM, rate=0.3, persistence=0.2),
                FaultSpec(CPU_POOL_CRASH, rate=0.15),
                FaultSpec(PLAN_DRIFT, rate=0.2, magnitude=1.3),
            ],
            seed=7,
        )
        runtime = FaultTolerantRuntime(planner, graphs, plan=plan, injector=injector)
        report = runtime.run(25)
        assert report.num_iterations == 25
        assert report.num_faults == len(report.faults) > 0
        assert report.degraded_iterations > 0
        assert report.retries > 0
        assert set(report.faults_by_kind()) <= {
            KERNEL_FAILURE, LATENCY_OVERRUN, FUSED_OOM, CPU_POOL_CRASH, PLAN_DRIFT,
        }
        assert report.mean_iteration_us > 0
        assert report.summary()

    def test_same_seed_same_report(self, setting):
        graphs, _, planner, plan, _ = setting
        specs = [FaultSpec(KERNEL_FAILURE, rate=0.5), FaultSpec(PLAN_DRIFT, rate=0.3)]

        def run_once():
            runtime = FaultTolerantRuntime(
                planner, graphs, plan=plan, injector=FaultInjector(specs, seed=11)
            )
            return runtime.run(12)

        assert run_once().to_dict() == run_once().to_dict()

    def test_recovery_path_reconstruction(self, setting):
        _, _, _, plan, _ = setting
        gpu, stage, kernel = fused_site(plan)
        event = FaultEvent(FUSED_OOM, iteration=0, gpu=gpu, stage=stage,
                           kernel=kernel.name, recover_after=-1)
        runtime = make_runtime(setting, {0: [event]})
        report = runtime.run(2)
        path = report.recovery_path(kernel.name, iteration=0)
        assert path == [CO_RUN, SHARD_RETRY, TRAILING, SEQUENTIAL, CPU_FALLBACK]
        assert report.rungs_reached()[CPU_FALLBACK] == 1

    def test_watchdog_triggers_replan(self, setting):
        graphs, _, planner, plan, _ = setting
        injector = FaultInjector([FaultSpec(PLAN_DRIFT, rate=1.0, magnitude=2.0)], seed=3)
        runtime = FaultTolerantRuntime(
            planner,
            graphs,
            plan=plan,
            injector=injector,
            watchdog=LatencyWatchdog(error_threshold=0.2),
        )
        report = runtime.run(8)
        assert report.replans >= 1
        assert any(r.replanned for r in report.iterations)

    def test_report_round_trips_through_plan_artifact(self, setting, tmp_path):
        graphs, workload, planner, plan, _ = setting
        gpu, stage, kernel = placed_sites(plan)[0]
        event = FaultEvent(KERNEL_FAILURE, iteration=0, gpu=gpu, stage=stage,
                           kernel=kernel.name, recover_after=-1)
        runtime = make_runtime(setting, {0: [event]})
        report = runtime.run(3)

        payload = plan_to_json(plan, resilience=report.to_dict())
        assert json.loads(payload)["resilience"]
        restored = resilience_from_json(payload)
        rebuilt = ResilienceReport.from_dict(restored)
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.recovery_path(kernel.name) == report.recovery_path(kernel.name)

    def test_resilience_absent_returns_none(self, setting):
        _, _, _, plan, _ = setting
        assert resilience_from_json(plan_to_json(plan)) is None


class TestValidation:
    def test_rejects_bad_iteration_count(self, setting):
        runtime = make_runtime(setting)
        with pytest.raises(ValueError):
            runtime.run(0)
