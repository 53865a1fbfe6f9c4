"""Golden-equivalence suite: compiled engine vs the naive executor.

The contract under test (ISSUE 5): for every column the naive
``execute_graph_set`` produces, the compiled engine produces the same name
with bit-identical contents -- dense columns with exact (dtype-preserving)
equality, sparse columns with exact ``offsets``/``values``/``hash_size`` --
across all Table-1 operators, random graphs, fused and unfused execution,
and empty/ragged/single-row batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codegen import compile_plan
from repro.core.fusion import build_fusion_instance
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.milp.fusion_problem import solve_fusion
from repro.preprocessing import (
    Batch,
    CompileError,
    DenseColumn,
    FeatureGraph,
    GraphSet,
    DENSE_CONSUMER,
    SparseColumn,
    SyntheticCriteoDataset,
    build_plan,
    compile_graph_set,
    compile_op_groups,
    execute_graph_set,
    make_op,
)
from repro.preprocessing import ParallelEngine
from repro.preprocessing.executor import MissingColumnsError
from repro.preprocessing.random_plans import RandomPlanConfig, generate_random_plan
from repro.core import RapPlanner

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def assert_batches_bit_identical(golden: Batch, out: Batch, names) -> None:
    for name in names:
        if name in golden.dense:
            assert name in out.dense, f"engine did not produce dense {name!r}"
            a, b = golden.dense[name].values, out.dense[name].values
            assert a.dtype == b.dtype, f"{name}: dtype {b.dtype} != {a.dtype}"
            if np.issubdtype(a.dtype, np.floating):
                np.testing.assert_array_equal(a, b, err_msg=name)
            else:
                assert np.array_equal(a, b), name
        else:
            assert name in golden.sparse, f"golden lost column {name!r}"
            assert name in out.sparse, f"engine did not produce sparse {name!r}"
            a, b = golden.sparse[name], out.sparse[name]
            assert a.hash_size == b.hash_size, name
            assert np.array_equal(a.offsets, b.offsets), name
            assert b.values.dtype == a.values.dtype, name
            assert np.array_equal(a.values, b.values), name


def produced_outputs(graph_set: GraphSet) -> list[str]:
    return [op.output for graph in graph_set for op in graph.ops]


def all_modes(graph_set: GraphSet):
    """The three compile modes: ASAP-fused, unfused, MILP assignment."""
    yield "fused", compile_graph_set(graph_set, fusion=True)
    yield "unfused", compile_graph_set(graph_set, fusion=False)
    instance, _ = build_fusion_instance(list(graph_set))
    assignment = solve_fusion(instance)
    yield "milp", compile_graph_set(graph_set, assignment=assignment)


def random_batch(rng: np.random.Generator, rows: int, max_len: int = 6) -> Batch:
    """A ragged batch with NaNs in the dense column and empty sparse rows."""
    dense = rng.normal(size=rows).astype(np.float32)
    dense[rng.random(rows) < 0.15] = np.nan
    lengths = rng.integers(0, max_len + 1, size=rows)
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    values = rng.integers(0, 2**40, size=int(offsets[-1]), dtype=np.int64)
    lengths2 = rng.integers(0, max_len + 1, size=rows)
    offsets2 = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(lengths2, out=offsets2[1:])
    values2 = rng.integers(0, 2**40, size=int(offsets2[-1]), dtype=np.int64)
    return Batch(
        dense={"d0": DenseColumn("d0", dense)},
        sparse={
            "s0": SparseColumn("s0", offsets, values, hash_size=2**40),
            "s1": SparseColumn("s1", offsets2, values2, hash_size=2**40),
        },
    )


# ----------------------------------------------------------------------
# Per-op coverage: every Table-1 operator, fused/unfused/MILP
# ----------------------------------------------------------------------

TABLE1_OPS = [
    ("FillNull", ("d0",), DENSE_CONSUMER, dict(fill_value=1.5)),
    ("Logit", ("d0",), DENSE_CONSUMER, dict(eps=1e-5)),
    ("BoxCox", ("d0",), DENSE_CONSUMER, dict(lmbda=0.5)),
    ("Cast", ("d0",), DENSE_CONSUMER, dict(dtype="float64")),
    ("Onehot", ("d0",), "t0", dict(num_classes=16)),
    ("Bucketize", ("d0",), "t0", dict(borders=(-0.5, 0.0, 0.5))),
    ("SigridHash", ("s0",), "t0", dict(salt=7, max_value=1009)),
    ("FirstX", ("s0",), "t0", dict(x=2)),
    ("Clamp", ("s0",), "t0", dict(lower=5, upper=500)),
    ("MapId", ("s0",), "t0", dict(multiplier=2_654_435_761, offset=1, table_size=997)),
    ("Ngram", ("s0", "s1"), "t0", dict(n=2, out_hash_size=1009)),
]


@pytest.mark.parametrize("op_name,inputs,consumer,params", TABLE1_OPS)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 48))
@settings(max_examples=15, deadline=None)
def test_single_op_bit_identical(op_name, inputs, consumer, params, seed, rows):
    op = make_op(op_name, inputs, f"{op_name}_out", **params)
    graph_set = GraphSet(
        [FeatureGraph(f"g_{op_name}", [op], consumer=consumer)], rows=rows
    )
    batch = random_batch(np.random.default_rng(seed), rows)
    golden = execute_graph_set(graph_set, batch)
    for mode, program in all_modes(graph_set):
        out = program.execute(batch)
        assert_batches_bit_identical(
            golden, out, produced_outputs(graph_set)
        ), f"mode {mode}"


# ----------------------------------------------------------------------
# Whole plans and random graphs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("plan_id", [0, 1, 2, 3])
def test_pinned_plans_bit_identical(plan_id):
    graph_set, schema = build_plan(plan_id, rows=512)
    batch = SyntheticCriteoDataset(schema, seed=11).batch(512, index=plan_id)
    golden = execute_graph_set(graph_set, batch)
    for mode, program in all_modes(graph_set):
        out = program.execute(batch)
        assert_batches_bit_identical(golden, out, produced_outputs(graph_set))
        # The fused modes must actually fuse on these plans, otherwise the
        # suite silently stops covering the grouped execution paths.
        if mode in ("fused", "milp"):
            assert program.max_fusion_degree >= 2


@given(seed=st.integers(0, 10_000), rows=st.integers(1, 96))
@settings(max_examples=20, deadline=None)
def test_random_graphs_bit_identical(seed, rows):
    graph_set, schema = generate_random_plan(RandomPlanConfig(seed=seed), rows=rows)
    batch = SyntheticCriteoDataset(schema, seed=seed).batch(rows, index=0)
    golden = execute_graph_set(graph_set, batch)
    for _, program in all_modes(graph_set):
        out = program.execute(batch)
        assert_batches_bit_identical(golden, out, produced_outputs(graph_set))


def test_all_empty_sparse_rows():
    """nnz == 0 through the whole sparse pipeline, fused and unfused."""
    ops = [
        make_op("SigridHash", ("s0",), "h", salt=3, max_value=101),
        make_op("FirstX", ("h",), "f", x=2),
        make_op("Clamp", ("f",), "c", lower=1, upper=50),
        make_op("Ngram", ("s0", "s1"), "n", n=2, out_hash_size=101),
    ]
    graph_set = GraphSet([FeatureGraph("g", ops, consumer="t0")], rows=5)
    empty = np.zeros(6, dtype=np.int64)
    batch = Batch(
        sparse={
            "s0": SparseColumn("s0", empty, np.empty(0, dtype=np.int64), 100),
            "s1": SparseColumn("s1", empty.copy(), np.empty(0, dtype=np.int64), 100),
        }
    )
    golden = execute_graph_set(graph_set, batch)
    for _, program in all_modes(graph_set):
        out = program.execute(batch)
        assert_batches_bit_identical(golden, out, produced_outputs(graph_set))


def test_single_row_batch():
    graph_set, schema = build_plan(1, rows=1)
    batch = SyntheticCriteoDataset(schema, seed=5).batch(1, index=0)
    golden = execute_graph_set(graph_set, batch)
    for _, program in all_modes(graph_set):
        assert_batches_bit_identical(
            golden, program.execute(batch), produced_outputs(graph_set)
        )


# ----------------------------------------------------------------------
# Worker-count matrix: the engine, at any width, must be bit-identical to
# the naive executor
# ----------------------------------------------------------------------

MATRIX_WORKERS = [1, 2, 4]


@pytest.mark.parametrize("workers", MATRIX_WORKERS)
def test_worker_matrix_bit_identical(workers):
    graph_set, schema = build_plan(1, rows=256)
    dataset = SyntheticCriteoDataset(schema, seed=13)
    names = produced_outputs(graph_set)
    batch = dataset.batch(256, index=0)
    golden = execute_graph_set(graph_set, batch)
    # Single-core compiled...
    program = compile_graph_set(graph_set)
    assert_batches_bit_identical(golden, program.execute(batch), names)
    # ...and the sharded multi-process engine at this width, including
    # arena reuse across iterations (the second batch recycles worker
    # segments bump-allocated for the first).
    with ParallelEngine(graph_set, workers=workers) as engine:
        assert_batches_bit_identical(golden, engine.execute(batch), names)
        batch1 = dataset.batch(256, index=1)
        golden1 = execute_graph_set(graph_set, batch1)
        assert_batches_bit_identical(golden1, engine.execute(batch1), names)


@pytest.mark.parametrize("workers", MATRIX_WORKERS)
def test_worker_matrix_empty_sparse_rows(workers):
    ops = [
        make_op("SigridHash", ("s0",), "h", salt=3, max_value=101),
        make_op("FirstX", ("h",), "f", x=2),
        make_op("Clamp", ("f",), "c", lower=1, upper=50),
        make_op("Ngram", ("s0", "s1"), "n", n=2, out_hash_size=101),
    ]
    graph_set = GraphSet([FeatureGraph("g", ops, consumer="t0")], rows=5)
    empty = np.zeros(6, dtype=np.int64)
    batch = Batch(
        sparse={
            "s0": SparseColumn("s0", empty, np.empty(0, dtype=np.int64), 100),
            "s1": SparseColumn("s1", empty.copy(), np.empty(0, dtype=np.int64), 100),
        }
    )
    golden = execute_graph_set(graph_set, batch)
    program = compile_graph_set(graph_set)
    assert_batches_bit_identical(golden, program.execute(batch), produced_outputs(graph_set))
    with ParallelEngine(graph_set, workers=workers) as engine:
        out = engine.execute(batch)
        assert_batches_bit_identical(golden, out, produced_outputs(graph_set))


# ----------------------------------------------------------------------
# The codegen path: plan -> per-GPU compiled programs
# ----------------------------------------------------------------------


def test_compile_plan_matches_naive():
    graph_set, schema = build_plan(1, rows=256)
    model = model_for_plan(graph_set, schema)
    workload = TrainingWorkload(model, num_gpus=2, local_batch=256)
    plan = RapPlanner(workload).plan(graph_set)
    programs = compile_plan(plan, rows=256)
    assert set(programs) == {0, 1}
    batch = SyntheticCriteoDataset(schema, seed=3).batch(256, index=0)
    golden = execute_graph_set(graph_set, batch)
    covered = set()
    for program in programs.values():
        out = program.execute(batch)
        names = [op.output for step in program.steps for op in step.members]
        covered.update(names)
        assert_batches_bit_identical(golden, out, names)
    # Between them the per-GPU programs execute every op the plan schedules.
    assert covered


# ----------------------------------------------------------------------
# Arena behavior and execution contract
# ----------------------------------------------------------------------


def test_arena_steady_state_no_new_allocations():
    graph_set, schema = build_plan(1, rows=512)
    program = compile_graph_set(graph_set)
    dataset = SyntheticCriteoDataset(schema, seed=9)
    program.execute(dataset.batch(512, index=0))
    allocated_after_first = program.arena.stats()["allocated_blocks"]
    program.execute(dataset.batch(512, index=1))
    assert program.arena.stats()["allocated_blocks"] == allocated_after_first
    assert program.arena.stats()["reused_blocks"] > 0
    assert program.batches_executed == 2


def test_copy_outputs_survive_next_batch():
    """copy_outputs detaches results from arena buffers reused next batch."""
    graph_set, schema = build_plan(1, rows=128)
    program = compile_graph_set(graph_set)
    dataset = SyntheticCriteoDataset(schema, seed=21)
    batch0 = dataset.batch(128, index=0)
    golden0 = execute_graph_set(graph_set, batch0)
    kept = program.execute(batch0, copy_outputs=True)
    program.execute(dataset.batch(128, index=1))  # recycles arena buffers
    assert_batches_bit_identical(golden0, kept, produced_outputs(graph_set))


def test_execute_validates_like_naive():
    graph_set, schema = build_plan(1, rows=64)
    program = compile_graph_set(graph_set)
    wrong_rows = SyntheticCriteoDataset(schema, seed=1).batch(32, index=0)
    with pytest.raises(ValueError, match="built for 64"):
        program.execute(wrong_rows)
    with pytest.raises(ValueError, match="built for 64"):
        execute_graph_set(graph_set, wrong_rows)
    empty = Batch(dense={"d": DenseColumn("d", np.zeros(64, dtype=np.float32))})
    with pytest.raises(MissingColumnsError):
        program.execute(empty)
    with pytest.raises(MissingColumnsError):
        execute_graph_set(graph_set, empty)


# ----------------------------------------------------------------------
# Compile-time validation
# ----------------------------------------------------------------------


def test_assignment_size_mismatch_raises():
    graph_set, _ = build_plan(1, rows=64)
    instance, _ = build_fusion_instance(list(graph_set)[:1])
    assignment = solve_fusion(instance)
    with pytest.raises(CompileError, match="covers"):
        compile_graph_set(graph_set, assignment=assignment)


def test_op_groups_order_violation_raises():
    first = make_op("SigridHash", ("s0",), "h", salt=1, max_value=11)
    second = make_op("Clamp", ("h",), "c", lower=0, upper=5)
    with pytest.raises(CompileError, match="dependency"):
        compile_op_groups([[second], [first]], rows=4)


def test_op_groups_mixed_types_raise():
    a = make_op("SigridHash", ("s0",), "h", salt=1, max_value=11)
    b = make_op("Clamp", ("s0",), "c", lower=0, upper=5)
    with pytest.raises(CompileError, match="mixes"):
        compile_op_groups([[a, b]], rows=4)


def test_duplicate_output_raises():
    a = make_op("SigridHash", ("s0",), "h", salt=1, max_value=11)
    b = make_op("SigridHash", ("s1",), "h", salt=2, max_value=11)
    with pytest.raises(CompileError, match="more than one op"):
        compile_op_groups([[a], [b]], rows=4)
