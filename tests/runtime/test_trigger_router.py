"""The runtime's one replan-trigger decision table, on both execution paths.

An iteration can fire two replan triggers: the drift detector (sustained
cost-model error) and the latency watchdog. Whether the iteration took the
transparent path (nothing faulted, drifted or evicted) or the degraded
path, the same table decides what happens:

- preempted: nothing -- a replan would hand back revoked GPU capacity;
- shadow attached: the winning trigger is noted for the promotion loop;
- otherwise drift recalibrates and replans, the watchdog replans.

Drift beats the watchdog in both modes. The triggers are scripted and the
actions recorded, so each case checks the decision alone.
"""

from dataclasses import dataclass, replace

import pytest

from repro.core import RapPlanner
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.runtime import (
    CPU_POOL_CRASH,
    FaultEvent,
    FaultTolerantRuntime,
    LatencyWatchdog,
    WatchdogDecision,
)
from repro.telemetry import DriftEvent, TelemetrySession

DRIFT = DriftEvent(iteration=0, mean_residual=0.5, worst_op_type="SigridHash", worst_residual=0.9)

NOTHING = None
RECALIBRATE = ("recalibrate",)
REPLAN = ("replan",)


def noted(trigger):
    return ("note_trigger", trigger)


@dataclass
class ScriptedWatchdog(LatencyWatchdog):
    """A watchdog whose every observation returns the scripted decision."""

    fire: bool = False

    def observe(self, predicted_us, observed_us, num_faults=0):
        return WatchdogDecision(replan=self.fire, error=0.0, fault_rate=0.0)


class ScriptedInjector:
    def __init__(self, faults):
        self.faults = faults

    def faults_for_iteration(self, iteration, plan):
        return list(self.faults)


class RecordingShadow:
    """Stands in for a ShadowPlanner: records the triggers it is handed."""

    in_probation = False

    def __init__(self, actions):
        self.actions = actions

    def note_trigger(self, iteration, trigger):
        self.actions.append(noted(trigger))


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(1, rows=1024)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=1024)
    planner = RapPlanner(workload)
    return graphs, planner, planner.plan(graphs)


def scripted_runtime(setting, *, path, preempted, shadow, drift, watchdog):
    """A runtime whose triggers fire as scripted and whose actions are recorded.

    Returns ``(runtime, actions, degraded_calls)``.
    """
    graphs, planner, plan = setting
    if path == "transparent" and preempted:
        # Eviction parks every placed kernel on the host pool, which keeps
        # the runtime off the transparent path -- unless the plan placed
        # no kernels at all.
        plan = replace(
            plan,
            assignments_per_gpu=[{} for _ in plan.assignments_per_gpu],
            trailing_per_gpu=[[] for _ in plan.trailing_per_gpu],
        )
    faults = [FaultEvent(CPU_POOL_CRASH, 0, magnitude=1.0)] if path == "degraded" else []
    actions: list = []
    telemetry = TelemetrySession()
    telemetry.check_drift = lambda iteration: DRIFT if drift else None
    runtime = FaultTolerantRuntime(
        planner,
        graphs,
        plan=plan,
        injector=ScriptedInjector(faults),
        watchdog=ScriptedWatchdog(fire=watchdog),
        telemetry=telemetry,
        shadow=RecordingShadow(actions) if shadow else None,
    )
    if preempted:
        runtime.evict_to_cpu(0)

    def recalibrate(iteration, event):
        assert event is DRIFT
        actions.append(RECALIBRATE)

    runtime._recalibrate_and_replan = recalibrate
    runtime._replan = lambda iteration: actions.append(REPLAN)
    degraded_calls = []
    run_degraded = runtime._run_degraded

    def spy(*args, **kwargs):
        degraded_calls.append(args)
        return run_degraded(*args, **kwargs)

    runtime._run_degraded = spy
    return runtime, actions, degraded_calls


# (preempted, shadow, drift fires, watchdog fires) -> action
CASES = {
    "preempted": ((True, False, True, True), NOTHING),
    "preempted-shadow": ((True, True, True, True), NOTHING),
    "quiet": ((False, False, False, False), NOTHING),
    "shadow-quiet": ((False, True, False, False), NOTHING),
    "shadow-drift": ((False, True, True, False), noted("drift")),
    "shadow-watchdog": ((False, True, False, True), noted("watchdog")),
    "shadow-both": ((False, True, True, True), noted("drift")),
    "drift": ((False, False, True, False), RECALIBRATE),
    "watchdog": ((False, False, False, True), REPLAN),
    "both": ((False, False, True, True), RECALIBRATE),
}


@pytest.mark.parametrize("path", ["transparent", "degraded"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_router_decision_table(setting, path, case):
    (preempted, shadow, drift, watchdog), expected = CASES[case]
    runtime, actions, degraded_calls = scripted_runtime(
        setting, path=path, preempted=preempted, shadow=shadow, drift=drift, watchdog=watchdog
    )

    record, _, _ = runtime.run_iteration(0)

    assert bool(degraded_calls) == (path == "degraded")
    assert actions == ([] if expected is NOTHING else [expected])
    assert record.replanned == (expected in (RECALIBRATE, REPLAN))
