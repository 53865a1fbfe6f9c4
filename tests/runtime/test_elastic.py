"""Tests for elastic GPU membership: re-sharding, fleet shrink, warm
replans, the N -> 1 -> CPU descent, and epoch-scoped fault accounting."""

import pytest

from repro.core import RapPlanner
from repro.dlrm import TrainingWorkload, model_for_plan, place_tables, reshard_placement
from repro.gpusim.cluster import MultiGpuCluster
from repro.gpusim.resources import A100_SPEC
from repro.preprocessing import build_plan
from repro.preprocessing.graph import DENSE_CONSUMER
from repro.runtime import (
    GPU_LOST,
    KERNEL_FAILURE,
    RESHARD_BASE_US,
    FaultEvent,
    FaultInjector,
    FaultSpec,
    FaultTolerantRuntime,
    LatencyWatchdog,
    MembershipChange,
    reshard_cost_us,
    surviving_mapping,
)

NUM_GPUS = 4
BATCH = 512


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(1, rows=BATCH)
    model = model_for_plan(graphs, schema)
    workload = TrainingWorkload(model, num_gpus=NUM_GPUS, local_batch=BATCH)
    planner = RapPlanner(workload)
    plan = planner.plan(graphs)
    return graphs, model, workload, planner, plan


def quiet_watchdog():
    return LatencyWatchdog(error_threshold=1e9, fault_rate_threshold=1e9)


class ScriptedInjector:
    def __init__(self, schedule):
        self.schedule = dict(schedule)

    def faults_for_iteration(self, iteration, plan):
        return list(self.schedule.get(iteration, []))


def gpu_lost(iteration, gpu):
    return FaultEvent(kind=GPU_LOST, iteration=iteration, gpu=gpu, recover_after=-1)


# ----------------------------------------------------------------------
# Re-sharding the embedding placement
# ----------------------------------------------------------------------


class TestReshardPlacement:
    def test_every_table_remains_placed(self, setting):
        _, model, workload, _, _ = setting
        resharded, _, _ = reshard_placement(workload.placement, model, lost_gpu=1)
        assert resharded.num_gpus == NUM_GPUS - 1
        for table in model.tables:
            assert resharded.is_placed(table.name)

    def test_survivors_keep_their_tables(self, setting):
        _, model, workload, _, _ = setting
        placement = workload.placement
        lost = 1
        resharded, moved, _ = reshard_placement(placement, model, lost_gpu=lost)
        remap = {g: i for i, g in enumerate(g for g in range(NUM_GPUS) if g != lost)}
        for name, gpu in placement.table_to_gpu.items():
            if gpu != lost:
                assert resharded.table_to_gpu[name] == remap[gpu]
                assert name not in moved

    def test_moved_bytes_price_only_the_moved_state(self, setting):
        _, model, workload, _, _ = setting
        placement = workload.placement
        lost = 0
        resharded, moved, moved_bytes = reshard_placement(placement, model, lost_gpu=lost)
        by_name = {t.name: t for t in model.tables}
        expected = 0.0
        for name in moved:
            if name in placement.row_wise_tables:
                expected += by_name[name].nbytes / NUM_GPUS  # only the dead shard
            else:
                expected += by_name[name].nbytes
        assert moved_bytes == pytest.approx(expected)
        assert moved_bytes > 0

    def test_two_gpu_reshard_lands_everything_on_survivor(self):
        graphs, schema = build_plan(0, rows=256)
        model = model_for_plan(graphs, schema)
        placement = place_tables(model, 2)
        resharded, _, _ = reshard_placement(placement, model, lost_gpu=0)
        assert resharded.num_gpus == 1
        assert not resharded.row_wise_tables  # row-wise collapses to table-wise
        assert set(resharded.table_to_gpu.values()) <= {0}

    def test_rejects_invalid_requests(self, setting):
        _, model, workload, _, _ = setting
        with pytest.raises(ValueError):
            reshard_placement(workload.placement, model, lost_gpu=NUM_GPUS)
        single = place_tables(model, 1)
        with pytest.raises(ValueError):
            reshard_placement(single, model, lost_gpu=0)


class TestClusterShrink:
    def test_shrink_drops_one_gpu(self):
        cluster = MultiGpuCluster(4, A100_SPEC)
        small = cluster.shrink(1)
        assert small.num_gpus == 3
        assert small.spec is cluster.spec

    def test_shrink_below_one_rejected(self):
        with pytest.raises(ValueError):
            MultiGpuCluster(1, A100_SPEC).shrink(0)


class TestWorkloadShrunk:
    def test_global_batch_contracts(self, setting):
        _, _, workload, _, _ = setting
        survivor, moved, moved_bytes = workload.shrunk(2)
        assert survivor.num_gpus == NUM_GPUS - 1
        assert survivor.local_batch == BATCH
        assert survivor.global_batch == BATCH * (NUM_GPUS - 1)
        assert moved_bytes > 0 and moved

    def test_survivor_simulates(self, setting):
        _, _, workload, _, _ = setting
        survivor, _, _ = workload.shrunk(0)
        assert survivor.ideal_iteration_us() > 0


# ----------------------------------------------------------------------
# Warm mapping and pricing
# ----------------------------------------------------------------------


class TestSurvivingMapping:
    def test_all_graphs_mapped_at_correct_rows(self, setting):
        graphs, _, workload, _, plan = setting
        lost = 1
        survivor, _, _ = workload.shrunk(lost)
        mapping = surviving_mapping(plan, lost, survivor, graphs)
        assert mapping.num_gpus == survivor.num_gpus
        for graph in graphs:
            placed = mapping.placements[graph.name]
            assert placed, f"graph {graph.name} lost its placement"
            for gpu, rows in placed:
                assert 0 <= gpu < survivor.num_gpus
                if graph.consumer == DENSE_CONSUMER:
                    assert rows == survivor.local_batch
                else:
                    assert rows == survivor.global_batch

    def test_dense_graphs_cover_every_survivor(self, setting):
        graphs, _, workload, _, plan = setting
        survivor, _, _ = workload.shrunk(0)
        mapping = surviving_mapping(plan, 0, survivor, graphs)
        for graph in graphs:
            if graph.consumer == DENSE_CONSUMER:
                assert sorted(g for g, _ in mapping.placements[graph.name]) == list(
                    range(survivor.num_gpus)
                )

    def test_mismatched_workload_rejected(self, setting):
        graphs, _, workload, _, plan = setting
        with pytest.raises(ValueError):
            surviving_mapping(plan, 0, workload, graphs)  # not N-1


class TestReshardCost:
    def test_base_plus_bandwidth_term(self):
        assert reshard_cost_us(0.0, A100_SPEC) == RESHARD_BASE_US
        one_gb = reshard_cost_us(1e9, A100_SPEC)
        assert one_gb == pytest.approx(RESHARD_BASE_US + 1e6 / A100_SPEC.pcie_bw_gbps)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            reshard_cost_us(-1.0, A100_SPEC)


# ----------------------------------------------------------------------
# The runtime descent N -> ... -> 1 -> CPU
# ----------------------------------------------------------------------


def plan_is_valid(plan, workload):
    """Every structural invariant an executable plan must satisfy."""
    assert plan.workload.num_gpus == workload.num_gpus
    assert len(plan.assignments_per_gpu) == workload.num_gpus
    assert len(plan.trailing_per_gpu) == workload.num_gpus
    assert plan.mapping.num_gpus == workload.num_gpus
    # Every graph in the set is mapped somewhere inside the fleet.
    for graph in plan.graph_set:
        placed = plan.mapping.placements.get(graph.name)
        assert placed, f"graph {graph.name} unmapped"
        for gpu, rows in placed:
            assert 0 <= gpu < workload.num_gpus
            assert rows > 0
    # Assignments only reference real stages of real GPUs.
    for gpu, per_stage in enumerate(plan.assignments_per_gpu):
        num_stages = len(workload.stages_for_gpu(gpu))
        for stage_idx in per_stage:
            assert 0 <= stage_idx < num_stages


class TestElasticDescent:
    def test_scripted_descent_to_cpu(self, setting):
        graphs, _, workload, planner, plan = setting
        schedule = {2: [gpu_lost(2, 1)], 4: [gpu_lost(4, 0)], 6: [gpu_lost(6, 1)], 8: [gpu_lost(8, 0)]}
        runtime = FaultTolerantRuntime(
            planner, graphs, plan=plan, injector=ScriptedInjector(schedule),
            watchdog=quiet_watchdog(),
        )
        mean_clean_us = {}
        fleet_sizes = []
        for i in range(12):
            before = runtime.workload.num_gpus if not runtime.cpu_only else 0
            record, faults, _ = runtime.run_iteration(i)
            after = runtime.workload.num_gpus if not runtime.cpu_only else 0
            fleet_sizes.append(after)
            if not runtime.cpu_only and before == after:
                plan_is_valid(runtime.plan, runtime.workload)
                mean_clean_us.setdefault(after, record.iteration_us)
        # The fleet walked 4 -> 3 -> 2 -> 1 -> cpu.
        assert fleet_sizes == [4, 4, 3, 3, 2, 2, 1, 1, 0, 0, 0, 0]
        assert runtime.cpu_only
        # Throughput (global batch / iteration) degrades monotonically as
        # the fleet shrinks: fewer samples per iteration, never faster.
        throughputs = [
            n * BATCH / mean_clean_us[n] for n in sorted(mean_clean_us, reverse=True)
        ]
        assert all(a >= b for a, b in zip(throughputs, throughputs[1:]))

    def test_membership_changes_recorded_and_priced(self, setting):
        graphs, _, workload, planner, plan = setting
        schedule = {1: [gpu_lost(1, 3)]}
        runtime = FaultTolerantRuntime(
            planner, graphs, plan=plan, injector=ScriptedInjector(schedule),
            watchdog=quiet_watchdog(),
        )
        report = runtime.run(4)
        assert len(report.membership_changes) == 1
        change = report.membership_changes[0]
        assert change.iteration == 1
        assert change.lost_gpu == 3 and change.lost_gpu_original == 3
        assert change.survivors == NUM_GPUS - 1
        assert change.moved_bytes > 0
        assert change.reshard_us == pytest.approx(
            reshard_cost_us(change.moved_bytes, workload.spec)
        )
        # The reshard is charged to exactly the loss iteration.
        lossy = report.iterations[1]
        assert lossy.recovery_us >= change.reshard_us
        assert lossy.replanned
        clean = report.iterations[2]
        assert clean.recovery_us == 0.0

    def test_original_identity_tracked_through_compaction(self, setting):
        graphs, _, _, planner, plan = setting
        # Losing index 0 twice removes original GPUs 0 then 1.
        schedule = {0: [gpu_lost(0, 0)], 1: [gpu_lost(1, 0)]}
        runtime = FaultTolerantRuntime(
            planner, graphs, plan=plan, injector=ScriptedInjector(schedule),
            watchdog=quiet_watchdog(),
        )
        report = runtime.run(3)
        originals = [m.lost_gpu_original for m in report.membership_changes]
        assert originals == [0, 1]
        assert [m.lost_gpu for m in report.membership_changes] == [0, 0]

    def test_seeded_descent_runs_to_completion(self, setting):
        graphs, _, _, planner, plan = setting
        injector = FaultInjector(specs=(FaultSpec(kind=GPU_LOST, rate=0.3),), seed=3)
        runtime = FaultTolerantRuntime(
            planner, graphs, plan=plan, injector=injector, watchdog=quiet_watchdog()
        )
        report = runtime.run(24)
        assert report.num_iterations == 24
        assert report.faults_by_kind().get(GPU_LOST, 0) == len(report.membership_changes)
        survivors = [m.survivors for m in report.membership_changes]
        assert survivors == sorted(survivors, reverse=True)  # strictly shrinking fleet
        # Deterministic: the same seed replays the same descent.
        planner2 = RapPlanner(plan.workload)
        runtime2 = FaultTolerantRuntime(
            planner2, graphs, injector=FaultInjector(specs=(FaultSpec(kind=GPU_LOST, rate=0.3),), seed=3),
            watchdog=quiet_watchdog(),
        )
        report2 = runtime2.run(24)
        assert report.to_dict() == report2.to_dict()

    def test_cpu_only_iterations_are_slower_than_gpu(self, setting):
        graphs, _, _, planner, plan = setting
        schedule = {1: [gpu_lost(1, 0)], 2: [gpu_lost(2, 0)], 3: [gpu_lost(3, 0)], 4: [gpu_lost(4, 0)]}
        runtime = FaultTolerantRuntime(
            planner, graphs, plan=plan, injector=ScriptedInjector(schedule),
            watchdog=quiet_watchdog(),
        )
        report = runtime.run(6)
        gpu_clean = report.iterations[0]
        cpu_iter = report.iterations[5]
        assert runtime.cpu_only
        assert cpu_iter.cpu_fallback_us > 0
        assert cpu_iter.iteration_us > gpu_clean.iteration_us


# ----------------------------------------------------------------------
# Epoch-scoped fault accounting (regression)
# ----------------------------------------------------------------------


class TestEpochAccounting:
    def test_epoch_partition_is_exact(self, setting):
        """Replan-window faults count once: per-epoch counts sum to the total.

        Before plan epochs, a fault landing in the same iteration as a
        replan was attributed to both the old and the new plan's window.
        """
        graphs, _, _, planner, plan = setting
        injector = FaultInjector(
            specs=(
                FaultSpec(kind=GPU_LOST, rate=0.2),
                FaultSpec(kind=KERNEL_FAILURE, rate=0.6),
            ),
            seed=9,
        )
        runtime = FaultTolerantRuntime(
            planner, graphs, plan=plan, injector=injector, watchdog=LatencyWatchdog()
        )
        report = runtime.run(20)
        by_epoch = report.faults_by_epoch()
        assert sum(by_epoch.values()) == report.num_faults
        # Every epoch charged with faults ran at least one iteration.
        for epoch in by_epoch:
            assert any(r.plan_epoch == epoch for r in report.iterations)

    def test_loss_iteration_faults_charged_to_old_epoch(self, setting):
        graphs, _, _, planner, plan = setting
        schedule = {
            3: [
                gpu_lost(3, 1),
                FaultEvent(kind=KERNEL_FAILURE, iteration=3, gpu=0, stage=0,
                           kernel="nonexistent", recover_after=1),
            ]
        }
        runtime = FaultTolerantRuntime(
            planner, graphs, plan=plan, injector=ScriptedInjector(schedule),
            watchdog=quiet_watchdog(),
        )
        report = runtime.run(6)
        lossy = report.iterations[3]
        assert lossy.replanned
        assert lossy.plan_epoch == 0  # charged to the plan the faults hit
        assert report.iterations[4].plan_epoch == 1
        assert report.faults_by_epoch() == {0: 2}

    def test_epoch_survives_serialization(self, setting):
        graphs, _, _, planner, plan = setting
        schedule = {1: [gpu_lost(1, 0)]}
        runtime = FaultTolerantRuntime(
            planner, graphs, plan=plan, injector=ScriptedInjector(schedule),
            watchdog=quiet_watchdog(),
        )
        report = runtime.run(4)
        from repro.runtime import ResilienceReport

        rebuilt = ResilienceReport.from_dict(report.to_dict())
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.faults_by_epoch() == report.faults_by_epoch()
        assert [m.to_dict() for m in rebuilt.membership_changes] == [
            m.to_dict() for m in report.membership_changes
        ]


def test_membership_change_round_trip():
    change = MembershipChange(
        iteration=7, lost_gpu=2, lost_gpu_original=3, survivors=2,
        moved_tables=("t1", "t2"), moved_bytes=1.5e9, reshard_us=12_345.0, plan_epoch=4,
    )
    assert MembershipChange.from_dict(change.to_dict()) == change
