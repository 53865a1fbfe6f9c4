"""Replan memo hits at the runtime's plan-install seam.

A watchdog replan that repeats an earlier one gets back a plan object the
runtime may already hold. Re-installing the live plan keeps what was
derived from it, a predictor swap still re-derives it, and a run killed
and resumed across memo hits (the resumed planner's memo starts empty, so
it searches where the uninterrupted run hit) replays bit-identically.

The fault stream is seeded from ``CHAOS_SEED`` (default 0), so the CI
``chaos`` matrix runs this file on three streams.
"""

import os

import pytest

from repro.core import RapPlanner
from repro.core.serialization import plan_to_json
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.runtime import (
    CheckpointManager,
    FaultInjector,
    FaultSpec,
    FaultTolerantRuntime,
    ResilienceReport,
    SimulatedKill,
)
from repro.telemetry import CalibratedPredictor, ResidualModel, TelemetrySession

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
BATCH = 1024
ITERATIONS = 80
RESUME_AT = 40
SPECS = (
    FaultSpec("kernel_failure", 0.2),
    FaultSpec("latency_overrun", 0.2),
    FaultSpec("fused_oom", 0.1),
    FaultSpec("cpu_pool_crash", 0.05),
    FaultSpec("plan_drift", 0.1),
)


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(1, rows=BATCH)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=BATCH)
    return graphs, workload


def make_runtime(graphs, workload, planner=None):
    return FaultTolerantRuntime(
        planner or RapPlanner(workload),
        graphs,
        injector=FaultInjector(list(SPECS), seed=CHAOS_SEED),
        telemetry=TelemetrySession(),
    )


def count_evaluations(planner, monkeypatch) -> list:
    """A list that every ``planner.evaluate`` call appends its plan to."""
    evaluated = []
    evaluate = planner.evaluate

    def recording(plan, *args, **kwargs):
        evaluated.append(plan)
        return evaluate(plan, *args, **kwargs)

    monkeypatch.setattr(planner, "evaluate", recording)
    return evaluated


def test_reinstalled_plan_is_not_evaluated_again(setting, monkeypatch):
    graphs, workload = setting
    planner = RapPlanner(workload)
    runtime = make_runtime(graphs, workload, planner)
    # Evaluated plans, with None wherever the live plan object changed.
    events = count_evaluations(planner, monkeypatch)
    reinstalls = 0
    install = runtime._install_plan

    def logging_install(plan, planner=None):
        nonlocal reinstalls
        if plan is runtime.plan:
            reinstalls += 1
        else:
            events.append(None)
        install(plan, planner)

    monkeypatch.setattr(runtime, "_install_plan", logging_install)
    runtime.run(ITERATIONS)

    assert planner.stats.memo_hits > 0 and reinstalls > 0
    # While one plan object stays live it is evaluated at most once, memo
    # hits that hand it back again included.
    segments = [[]]
    for event in events:
        if event is None:
            segments.append([])
        else:
            segments[-1].append(event)
    assert all(len(segment) <= 1 for segment in segments)
    runtime._installed().report
    before = len(events)
    runtime._install_plan(runtime.plan)
    runtime._installed().report
    assert len(events) == before


def test_predictor_swap_evaluates_again(setting, monkeypatch):
    graphs, workload = setting
    planner = RapPlanner(workload)
    evaluated = count_evaluations(planner, monkeypatch)
    runtime = FaultTolerantRuntime(planner, graphs)
    runtime.run(2)
    assert len(evaluated) == 1
    runtime._install_plan(runtime.plan)
    runtime.run(1, start_iteration=2)
    assert len(evaluated) == 1
    planner.set_predictor(CalibratedPredictor(None, ResidualModel()))
    runtime.run(1, start_iteration=3)
    assert len(evaluated) == 2 and evaluated[1] is evaluated[0]


def test_resume_across_memo_hits_is_bit_identical(setting, tmp_path):
    graphs, workload = setting
    straight = make_runtime(graphs, workload)
    straight_report = straight.run(RESUME_AT)
    hits_before = straight.planner.stats.memo_hits
    straight.run(ITERATIONS - RESUME_AT, start_iteration=RESUME_AT, report=straight_report)
    # The uninterrupted run hits the memo after the resume point, where
    # the resumed planner starts with an empty memo.
    assert straight.planner.stats.memo_hits > hits_before

    killed = make_runtime(graphs, workload)
    checkpoints = CheckpointManager(tmp_path)
    with pytest.raises(SimulatedKill):
        killed.run(ITERATIONS, report=ResilienceReport(), checkpoints=checkpoints,
                   checkpoint_every=RESUME_AT, kill_after=RESUME_AT + 5)
    resumed, report, start = FaultTolerantRuntime.restore(
        checkpoints.latest(),
        graphs,
        workload,
        lambda wl: RapPlanner(wl),
        injector=FaultInjector(list(SPECS), seed=CHAOS_SEED),
        telemetry=TelemetrySession(),
    )
    assert start == RESUME_AT
    resumed.run(ITERATIONS - start, start_iteration=start, report=report)

    assert report.to_dict() == straight_report.to_dict()
    assert plan_to_json(resumed.plan) == plan_to_json(straight.plan)
