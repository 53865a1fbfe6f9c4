"""Multi-core engine: sharding, shm lifecycle, telemetry, crash safety.

Bit-identity of the parallel engine against the naive executor across the
worker-count matrix lives in ``test_engine_equivalence.py``; this file
covers the machinery itself -- deterministic dependency-closed
partitioning, leak-proof segment lifecycle (including SIGKILL mid-flight),
the bounded ``BufferArena`` pool, and the ``rap_engine_*`` metric families.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.fusion import build_fusion_instance
from repro.milp.fusion_problem import solve_fusion
from repro.preprocessing import (
    BufferArena,
    EngineMetrics,
    EngineWorkerError,
    ParallelEngine,
    SyntheticCriteoDataset,
    build_plan,
    execute_graph_set,
    partition_ops,
    plan_slots,
)
from repro.preprocessing.executor import MissingColumnsError
from repro.preprocessing.parallel import leaked_segments

from .test_engine_equivalence import assert_batches_bit_identical, produced_outputs


@pytest.fixture(scope="module")
def plan1():
    graph_set, schema = build_plan(1, rows=256)
    return graph_set, schema


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------


def test_partition_deterministic_and_closed(plan1):
    graph_set, _ = plan1
    ops, _, _ = plan_slots(graph_set)
    produced = {op.output for op in ops}
    for num_shards in (1, 2, 4, 8):
        shards = partition_ops(ops, num_shards, graph_set.rows)
        again = partition_ops(ops, num_shards, graph_set.rows)
        assert shards == again, "partitioning must be a pure function of the plan"
        assert len(shards) <= num_shards
        covered = [i for shard in shards for i in shard]
        assert sorted(covered) == list(range(len(ops)))
        assert len(covered) == len(set(covered))
        for shard in shards:
            assert shard == sorted(shard)
            members = set(shard)
            for i in shard:
                for inp in ops[i].inputs:
                    if inp in produced:
                        # Intra-plan dependencies never cross shards.
                        producer = next(
                            j for j, op in enumerate(ops) if op.output == inp
                        )
                        assert producer in members


def test_partition_single_shard_is_whole_plan(plan1):
    graph_set, _ = plan1
    ops, _, _ = plan_slots(graph_set)
    (shard,) = partition_ops(ops, 1, graph_set.rows)
    assert shard == list(range(len(ops)))


def test_partition_rejects_zero_shards(plan1):
    graph_set, _ = plan1
    ops, _, _ = plan_slots(graph_set)
    with pytest.raises(ValueError, match="num_shards"):
        partition_ops(ops, 0, graph_set.rows)


# ----------------------------------------------------------------------
# Compile modes through the parallel engine
# ----------------------------------------------------------------------


def test_unfused_and_milp_modes_bit_identical(plan1):
    graph_set, schema = plan1
    batch = SyntheticCriteoDataset(schema, seed=23).batch(256, index=0)
    golden = execute_graph_set(graph_set, batch)
    names = produced_outputs(graph_set)
    with ParallelEngine(graph_set, fusion=False, workers=2) as engine:
        assert_batches_bit_identical(golden, engine.execute(batch), names)
    instance, _ = build_fusion_instance(list(graph_set))
    assignment = solve_fusion(instance)
    with ParallelEngine(graph_set, assignment=assignment, workers=3) as engine:
        assert_batches_bit_identical(golden, engine.execute(batch), names)


def test_copy_outputs_survive_next_batch(plan1):
    graph_set, schema = plan1
    dataset = SyntheticCriteoDataset(schema, seed=29)
    batch0 = dataset.batch(256, index=0)
    golden0 = execute_graph_set(graph_set, batch0)
    with ParallelEngine(graph_set, workers=2) as engine:
        kept = engine.execute(batch0, copy_outputs=True)
        engine.execute(dataset.batch(256, index=1))  # recycles shm arenas
        assert_batches_bit_identical(golden0, kept, produced_outputs(graph_set))


def test_execute_validates_like_naive(plan1):
    graph_set, schema = plan1
    with ParallelEngine(graph_set, workers=2) as engine:
        with pytest.raises(ValueError, match="256"):
            engine.execute(SyntheticCriteoDataset(schema, seed=1).batch(64, index=0))
        from repro.preprocessing import Batch, DenseColumn

        empty = Batch(dense={"d": DenseColumn("d", np.zeros(256, dtype=np.float32))})
        with pytest.raises(MissingColumnsError):
            engine.execute(empty)


# ----------------------------------------------------------------------
# Shared-memory lifecycle
# ----------------------------------------------------------------------


def test_close_unlinks_every_segment(plan1):
    graph_set, schema = plan1
    batch = SyntheticCriteoDataset(schema, seed=31).batch(256, index=0)
    engine = ParallelEngine(graph_set, workers=4)
    engine.execute(batch)
    prefix = engine.prefix
    assert leaked_segments(prefix), "engine should have live segments mid-run"
    engine.close()
    engine.close()  # idempotent
    assert leaked_segments(prefix) == []
    with pytest.raises(RuntimeError):
        engine.execute(batch)


def test_worker_kill_mid_run_leaves_no_segments(plan1):
    graph_set, schema = plan1
    batch = SyntheticCriteoDataset(schema, seed=37).batch(256, index=0)
    engine = ParallelEngine(graph_set, workers=2)
    engine.execute(batch)
    prefix = engine.prefix
    victim = engine._worker_handles[0].process
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10.0)
    with pytest.raises(EngineWorkerError, match="died"):
        # One execute may win the race against pipe EOF; the next cannot.
        engine.execute(batch)
        engine.execute(batch)
    # The failed execute auto-closed the engine and swept its prefix.
    for _ in range(50):
        if not leaked_segments(prefix):
            break
        time.sleep(0.1)
    assert leaked_segments(prefix) == []
    with pytest.raises(RuntimeError):
        engine.execute(batch)


# ----------------------------------------------------------------------
# Bounded BufferArena pool (satellite)
# ----------------------------------------------------------------------


def test_arena_retention_cap_evicts_surplus():
    arena = BufferArena(retain_per_class=1)
    a = arena.take(1024, np.float32)
    b = arena.take(1024, np.float32)
    assert a.base is not b.base
    arena.reset()
    # Only one block fits the size class's cap; the surplus was released.
    assert arena.evicted_blocks == 1
    assert arena.stats()["free_blocks"] == 1
    arena.take(1024, np.float32)
    assert arena.reused_blocks == 1
    assert arena.hit_rate() == pytest.approx(1 / 3)
    assert arena.pooled_bytes() == 1024 * 4


def test_arena_rejects_nonpositive_cap():
    with pytest.raises(ValueError, match="retain_per_class"):
        BufferArena(retain_per_class=0)


def test_arena_stats_surface_pool_health():
    arena = BufferArena()
    arena.take(10, np.int64)
    arena.reset()
    arena.take(10, np.int64)
    stats = arena.stats()
    assert stats["allocated_blocks"] == 1
    assert stats["reused_blocks"] == 1
    assert stats["evicted_blocks"] == 0
    assert stats["hit_rate"] == 0.5
    assert stats["pooled_bytes"] == 16 * 8  # one 16-wide int64 block


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------


def test_engine_metric_families_recorded(plan1):
    graph_set, schema = plan1
    batch = SyntheticCriteoDataset(schema, seed=41).batch(256, index=0)
    metrics = EngineMetrics()
    with ParallelEngine(graph_set, workers=2, metrics=metrics) as engine:
        engine.execute(batch)
        engine.execute(batch)
        assert metrics.batches_total.value == 2
        assert metrics.exec_seconds_total.value > 0
        assert metrics.shm_bytes_in_flight.value > 0
        assert metrics.shm_segments.value >= 2
        busy = [
            metrics.registry.counter(
                "rap_engine_worker_busy_seconds_total",
                "Per-worker seconds spent inside shard program execution.",
                labels={"worker": str(i)},
            ).value
            for i in range(engine.num_workers)
        ]
        assert all(v > 0 for v in busy)
        fractions = engine.worker_busy_fractions()
        assert set(fractions) == set(range(engine.num_workers))
        assert all(0 <= f <= 1 for f in fractions.values())
    # close() zeroes the in-flight gauges so dashboards don't show ghosts.
    assert metrics.shm_bytes_in_flight.value == 0
    assert metrics.shm_segments.value == 0


def test_summary_reports_shards_and_backend(plan1):
    graph_set, _ = plan1
    with ParallelEngine(graph_set, workers=4) as engine:
        _, schema = plan1
        engine.execute(SyntheticCriteoDataset(schema, seed=43).batch(256, index=0))
        info = engine.summary()
        assert info["workers"] == engine.num_shards
        assert sum(info["shards"]) == engine.num_ops
        assert info["steps"] > 0
        assert info["shm_bytes"] > 0
