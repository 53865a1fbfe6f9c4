"""Cost guards for the engine's buffers, by counts rather than timings.

- A fused elementwise step runs its kernel in place over the staged
  concatenation: one arena lease per dtype group, not a staging buffer
  plus an output buffer.
- Every fused step leases its outputs from the arena, so a parallel
  worker never copies a heap array into shared memory before replying.
"""

import multiprocessing
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from repro.preprocessing import (
    BufferArena,
    ParallelEngine,
    SyntheticCriteoDataset,
    build_plan,
    compile_graph_set,
    execute_graph_set,
)
from repro.preprocessing import parallel
from repro.preprocessing.data import Batch, DenseColumn, SparseColumn
from repro.preprocessing.graph import FeatureGraph, GraphSet
from repro.preprocessing.ops import FillNull, MapId, PreprocessingOp, SigridHash

from .test_engine_equivalence import assert_batches_bit_identical, produced_outputs


class CountingArena(BufferArena):
    """A ``BufferArena`` that records the dtype of every lease."""

    def __init__(self) -> None:
        super().__init__()
        self.leases: list[np.dtype] = []

    def take(self, size, dtype):
        self.leases.append(np.dtype(dtype))
        return super().take(size, dtype)


def sparse_batch(names, rows=6):
    rng = np.random.default_rng(3)
    sparse = {}
    for name in names:
        lengths = rng.integers(0, 4, rows)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        values = rng.integers(-(2**40), 2**40, int(offsets[-1]))
        sparse[name] = SparseColumn(name, offsets, values, 100)
    return Batch(sparse=sparse)


def run_counted(ops, batch):
    graph_set = GraphSet([FeatureGraph("g", ops, consumer="t0")], rows=batch.size)
    program = compile_graph_set(graph_set)
    program.arena = arena = CountingArena()
    assert program.num_steps == 1, "the ops must fuse into one step"
    out = program.execute(batch)
    assert_batches_bit_identical(
        execute_graph_set(graph_set, batch), out, produced_outputs(graph_set)
    )
    return arena.leases


@pytest.mark.parametrize("op_type", [SigridHash, MapId])
def test_fused_sparse_step_takes_one_lease(op_type):
    names = [f"s{i}" for i in range(4)]
    ops = [op_type(inputs=(name,), output=f"o{name}") for name in names]
    assert run_counted(ops, sparse_batch(names)) == [np.dtype(np.int64)]


def test_fused_dense_step_takes_one_lease_per_matching_dtype_group():
    rng = np.random.default_rng(5)
    dense = {}
    for i, dtype in enumerate([np.float32, np.float32, np.float64, np.float64]):
        values = rng.random(6).astype(dtype)
        values[i] = np.nan
        dense[f"d{i}"] = DenseColumn(f"d{i}", values)
    ops = [FillNull(inputs=(name,), output=f"o{name}", fill_value=-1.0) for name in dense]
    leases = run_counted(ops, Batch(dense=dense))
    # float32 members run in place over their staging buffer; float64
    # members need a float32 output beside their float64 staging buffer.
    assert sorted(map(str, leases)) == ["float32", "float32", "float64"]


# ----------------------------------------------------------------------
# Parallel workers: no heap-to-shm copies
# ----------------------------------------------------------------------


@dataclass
class Negate(PreprocessingOp):
    """An op with no fused lowering: it runs as a generic step on the heap."""

    op_name: ClassVar[str] = "Negate"
    input_kind: ClassVar[str] = "sparse"
    output_kind: ClassVar[str] = "sparse"

    def _transform(self, columns):
        (col,) = columns
        return SparseColumn(self.output, col.offsets.copy(), -col.values, col.hash_size)


@pytest.fixture
def heap_copies(monkeypatch):
    """Count ``_stage_heap_array`` calls made inside forked workers."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the counting wrapper reaches workers only through fork")
    counter = multiprocessing.Value("i", 0)
    original = parallel._stage_heap_array

    def counting(arr, arena):
        with counter.get_lock():
            counter.value += 1
        return original(arr, arena)

    monkeypatch.setattr(parallel, "_stage_heap_array", counting)
    return counter


def run_parallel(graph_set, batch, workers=2):
    with ParallelEngine(graph_set, workers=workers) as engine:
        for _ in range(2):
            out = engine.execute(batch)
            assert_batches_bit_identical(
                execute_graph_set(graph_set, batch), out, produced_outputs(graph_set)
            )


def test_plan2_workers_stage_no_heap_arrays(heap_copies):
    graph_set, schema = build_plan(2, rows=256)
    batch = SyntheticCriteoDataset(schema, seed=11).batch(256, index=0)
    run_parallel(graph_set, batch)
    assert heap_copies.value == 0


def test_generic_step_output_is_staged(heap_copies):
    """Control: the wrapper does see the copies a heap output needs."""
    batch = sparse_batch(["s0"])
    ops = [Negate(inputs=("s0",), output="neg"), SigridHash(inputs=("neg",), output="h")]
    graph_set = GraphSet([FeatureGraph("g", ops, consumer="t0")], rows=batch.size)
    run_parallel(graph_set, batch, workers=1)
    # Two batches, each staging the Negate output's offsets and values and
    # the SigridHash output's offsets, which pass the Negate ones through.
    assert heap_copies.value == 6
