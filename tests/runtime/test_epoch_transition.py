"""Every plan change after construction is one plan-epoch transition.

Watchdog replan, service adoption, service eviction, shadow promotion,
shadow rollback and a fleet shrink each swap the live plan. Each must
advance ``plan_epoch`` by exactly one, restart the watchdog window and the
epoch's retry budget, note exactly one telemetry replan under its reason,
and journal the record types it always has.
"""

import pytest

from repro.core import RapPlanner
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.runtime import (
    GPU_LOST,
    FaultEvent,
    FaultTolerantRuntime,
    ResilienceReport,
    ShadowPlanner,
)
from repro.telemetry import DriftDetector, LatencyDrift, TelemetrySession, parse_prometheus_text

BATCH = 1024
ITERATION = 5
#: Drift that makes the shadow loop promote a recalibrated candidate, then
#: roll it back once the promoted plan regresses.
REGRESSING = [
    LatencyDrift("SigridHash", 20.0, start_iteration=2),
    LatencyDrift("MapId", 20.0, start_iteration=6),
]
#: Journal records every ``run()`` call writes, whatever happens in it.
RUN_BOOKKEEPING = {"run", "calibration_summary"}


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(2, rows=BATCH)
    return graphs, TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=BATCH)


class ListJournal:
    def __init__(self):
        self.types = []

    def append(self, record_type, **fields):
        self.types.append(record_type)


def replans_by_reason(telemetry):
    parsed = parse_prometheus_text(telemetry.prometheus_text())
    family = parsed.get("rap_replans_total", {"samples": []})
    return {labels["reason"]: count for labels, count in family["samples"]}


def make_runtime(setting, shadow=False):
    graphs, workload = setting
    return FaultTolerantRuntime(
        RapPlanner(workload),
        graphs,
        telemetry=TelemetrySession(drift_detector=DriftDetector(threshold=0.25, window=3)),
        drift_schedule=REGRESSING if shadow else (),
        shadow=ShadowPlanner() if shadow else None,
        journal=ListJournal(),
    )


def step_until_new_epoch(runtime, report, start):
    """Run single iterations until the plan epoch changes."""
    epoch = runtime.plan_epoch
    for i in range(start, start + 14):
        runtime.run(1, start_iteration=i, report=report)
        if runtime.plan_epoch != epoch:
            return i + 1
    raise AssertionError("no plan change within 14 iterations")


def replan(runtime):
    runtime._replan(ITERATION)


def adopt(runtime):
    runtime.adopt_plan(runtime.planner, runtime.plan, ITERATION)


def evict(runtime):
    runtime.evict_to_cpu(ITERATION)


def membership(runtime):
    event = FaultEvent(kind=GPU_LOST, iteration=ITERATION, gpu=1, recover_after=-1)
    runtime._lose_gpu(ITERATION, event)


def promotion(runtime):
    step_until_new_epoch(runtime, ResilienceReport(), 0)


def rollback(runtime):
    report = ResilienceReport()
    next_iteration = step_until_new_epoch(runtime, report, 0)
    assert runtime.shadow.in_probation
    before = replans_by_reason(runtime.telemetry)
    runtime.journal.types.clear()
    runtime.watchdog.observe(100.0, 120.0)
    runtime._epoch_retry_used = 3
    epoch = runtime.plan_epoch
    step_until_new_epoch(runtime, report, next_iteration)
    assert not runtime.shadow.in_probation
    return epoch, before


PATHS = {
    # path: (drive, shadow attached, telemetry reason, journal record types)
    "watchdog": (replan, False, "watchdog", ["replan"]),
    "adopt": (adopt, False, "carve", ["replan"]),
    "evict": (evict, False, "preempted", ["evict"]),
    "membership": (membership, False, "membership", ["membership"]),
    "promotion": (promotion, True, "promotion", ["shadow_eval", "promotion"]),
    "rollback": (rollback, True, "rollback", ["promotion_result"]),
}


@pytest.mark.parametrize("path", list(PATHS))
def test_plan_change_is_one_epoch_transition(setting, path):
    drive, shadow, reason, record_types = PATHS[path]
    runtime = make_runtime(setting, shadow=shadow)
    runtime.watchdog.observe(100.0, 120.0)  # below the threshold: no trigger
    runtime._epoch_retry_used = 3
    epoch = runtime.plan_epoch
    before = replans_by_reason(runtime.telemetry)

    # The rollback path first promotes; it measures from the promotion on.
    measured_from = drive(runtime)
    if measured_from is not None:
        epoch, before = measured_from

    assert runtime.plan_epoch == epoch + 1
    assert runtime._epoch_retry_used == 0
    assert runtime.watchdog.observe(100.0, 100.0).error == 0.0
    after = replans_by_reason(runtime.telemetry)
    assert {r: after[r] - before.get(r, 0.0) for r in after if after[r] != before.get(r)} == {
        reason: 1.0
    }
    assert [t for t in runtime.journal.types if t not in RUN_BOOKKEEPING] == record_types
