"""Tests for the §10 runtime-variability (drift + replanning) extension."""

import pytest

from repro.core import RapPlanner, drift_graph_set, scale_plan_kernels
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.runtime import PLAN_DRIFT, FaultEvent, FaultInjector, FaultTolerantRuntime


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(1, rows=2048)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=2048)
    return graphs, workload


class TestDriftGraphSet:
    def test_rejects_nonpositive_scale(self, setting):
        graphs, _ = setting
        with pytest.raises(ValueError):
            drift_graph_set(graphs, 0.0)

    def test_scales_list_lengths(self, setting):
        graphs, _ = setting
        drifted = drift_graph_set(graphs, 2.0)
        for before, after in zip(graphs, drifted):
            assert after.avg_list_length == pytest.approx(2.0 * before.avg_list_length)

    def test_scales_costs(self, setting):
        graphs, workload = setting
        drifted = drift_graph_set(graphs, 3.0)
        assert drifted.standalone_latency_us(workload.spec) > graphs.standalone_latency_us(
            workload.spec
        )

    def test_identity_scale(self, setting):
        graphs, workload = setting
        same = drift_graph_set(graphs, 1.0)
        assert same.standalone_latency_us(workload.spec) == pytest.approx(
            graphs.standalone_latency_us(workload.spec)
        )


class TestDriftEdgeCases:
    def test_rejects_negative_scale(self, setting):
        graphs, _ = setting
        with pytest.raises(ValueError):
            drift_graph_set(graphs, -2.0)

    def test_extreme_shrink_stays_valid(self, setting):
        graphs, workload = setting
        drifted = drift_graph_set(graphs, 1e-6)
        assert len(drifted) == len(graphs)
        assert drifted.standalone_latency_us(workload.spec) >= 0.0
        for g in drifted:
            assert g.avg_list_length > 0

    def test_extreme_growth_stays_finite(self, setting):
        graphs, workload = setting
        drifted = drift_graph_set(graphs, 1e6)
        latency = drifted.standalone_latency_us(workload.spec)
        assert latency > graphs.standalone_latency_us(workload.spec)
        assert latency < float("inf")

    def test_preserves_structure(self, setting):
        graphs, _ = setting
        drifted = drift_graph_set(graphs, 2.5)
        assert drifted.rows == graphs.rows
        for before, after in zip(graphs, drifted):
            assert after.name == before.name
            assert after.ops is before.ops
            assert after.consumer == before.consumer

    def test_drift_composes(self, setting):
        graphs, _ = setting
        twice = drift_graph_set(drift_graph_set(graphs, 2.0), 3.0)
        once = drift_graph_set(graphs, 6.0)
        for a, b in zip(twice, once):
            assert a.avg_list_length == pytest.approx(b.avg_list_length)


class TestScalePlanKernels:
    @pytest.fixture(scope="class")
    def plan(self, setting):
        from repro.core import RapPlanner

        graphs, workload = setting
        return RapPlanner(workload).plan(graphs)

    @pytest.mark.parametrize("scale", [0.0, -1.5])
    def test_rejects_nonpositive_scale(self, plan, scale):
        with pytest.raises(ValueError):
            scale_plan_kernels(plan, scale)

    def test_identity_scale_preserves_durations(self, plan):
        assignments, trailing = scale_plan_kernels(plan, 1.0)
        for per_gpu, orig in zip(assignments, plan.assignments_per_gpu):
            assert set(per_gpu) == set(orig)
            for idx in orig:
                for a, b in zip(per_gpu[idx], orig[idx]):
                    assert a.duration_us == b.duration_us

    def test_scales_every_duration(self, plan):
        assignments, trailing = scale_plan_kernels(plan, 2.0)
        for per_gpu, orig in zip(assignments, plan.assignments_per_gpu):
            for idx in orig:
                for a, b in zip(per_gpu[idx], orig[idx]):
                    assert a.duration_us == pytest.approx(2.0 * b.duration_us)
        for scaled, orig in zip(trailing, plan.trailing_per_gpu):
            for a, b in zip(scaled, orig):
                assert a.duration_us == pytest.approx(2.0 * b.duration_us)

    def test_leaves_plan_untouched(self, plan):
        before = [
            [k.duration_us for idx in sorted(per_gpu) for k in per_gpu[idx]]
            for per_gpu in plan.assignments_per_gpu
        ]
        scale_plan_kernels(plan, 5.0)
        after = [
            [k.duration_us for idx in sorted(per_gpu) for k in per_gpu[idx]]
            for per_gpu in plan.assignments_per_gpu
        ]
        assert before == after

    def test_preserves_non_duration_fields(self, plan):
        assignments, _ = scale_plan_kernels(plan, 3.0)
        for per_gpu, orig in zip(assignments, plan.assignments_per_gpu):
            for idx in orig:
                for a, b in zip(per_gpu[idx], orig[idx]):
                    assert a.name == b.name
                    assert a.demand == b.demand
                    assert a.tag == b.tag


#: List-length scales the runtime steps through on plan 2, 2 GPUs, batch
#: 2048, each held for ITERATIONS_PER_SCALE iterations. Drift up to 2.0x is
#: still hidden by the co-running schedule; 3.0x and 6.0x expose
#: preprocessing; 4.0x is hidden by the plan regenerated at 3.0x.
SCALES = (1.0, 1.1, 2.0, 3.0, 4.0, 6.0)
ITERATIONS_PER_SCALE = 4


@pytest.fixture(scope="module")
def drift_run():
    """Run the §10 drift loop once through the runtime: (planner, the
    plan made for the undrifted graphs, {scale: that scale's records})."""
    graphs, schema = build_plan(2, rows=2048)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=2048)
    planner = RapPlanner(workload)
    stale = planner.plan(graphs)
    schedule = [
        FaultEvent(PLAN_DRIFT, iteration=i * ITERATIONS_PER_SCALE, magnitude=scale / before)
        for i, (before, scale) in enumerate(zip(SCALES, SCALES[1:]), start=1)
    ]
    runtime = FaultTolerantRuntime(
        planner, graphs, plan=stale, injector=FaultInjector(schedule=schedule)
    )
    records = runtime.run(ITERATIONS_PER_SCALE * len(SCALES)).iterations
    windows = {
        scale: records[i * ITERATIONS_PER_SCALE : (i + 1) * ITERATIONS_PER_SCALE]
        for i, scale in enumerate(SCALES)
    }
    return planner, stale, windows


class TestAdaptiveReplanner:
    """§10 through the runtime's latency watchdog and `RapPlanner.replan`."""

    def test_small_drift_keeps_plan(self, drift_run):
        _, _, windows = drift_run
        for scale in (1.0, 1.1, 2.0):
            assert not any(r.replanned for r in windows[scale]), scale
            assert all(r.exposed_us == 0.0 for r in windows[scale]), scale

    def test_large_drift_triggers_replanning(self, drift_run):
        _, _, windows = drift_run
        first = windows[3.0][0]
        assert first.exposed_us > 0.0
        assert first.replanned

    def test_replanned_no_worse_than_stale(self, drift_run):
        """At every scale the live iteration is no slower than the plan made
        for the undrifted graphs, priced under the same drift."""
        planner, stale, windows = drift_run
        for scale, window in windows.items():
            stale_us = planner.evaluate_scaled(stale, scale).iteration_us
            assert window[-1].iteration_us <= stale_us, scale
        assert windows[6.0][-1].iteration_us < planner.evaluate_scaled(stale, 6.0).iteration_us

    def test_threshold_resets_after_replan(self, drift_run):
        """The plan regenerated at 3.0x becomes the baseline: 4.0x, which
        would expose the original plan, is hidden by it and keeps it."""
        planner, stale, windows = drift_run
        assert planner.evaluate_scaled(stale, 4.0).iteration_us > windows[4.0][-1].iteration_us
        assert not any(r.replanned for r in windows[4.0])
        assert all(r.exposed_us == 0.0 for r in windows[4.0])


class TestReplannerEdgeTrigger:
    def test_fires_once_per_crossing(self, drift_run):
        """Sustained drift at one scale replans exactly once, not per iteration."""
        _, _, windows = drift_run
        assert [r.replanned for r in windows[3.0]] == [True, False, False, False]

    def test_second_crossing_fires_again(self, drift_run):
        _, _, windows = drift_run
        assert windows[6.0][0].exposed_us > 0.0
        assert [r.replanned for r in windows[6.0]] == [True, False, False, False]
