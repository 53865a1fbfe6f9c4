"""Compiled batch-execution engine for preprocessing graph sets (§6, §8).

The naive path (:func:`repro.preprocessing.executor.execute_graph_set`)
walks every :class:`FeatureGraph` op-by-op: one Python dispatch, one fresh
numpy allocation, and one column-object validation per operator per batch.
This module lowers a planned :class:`GraphSet` **once** into a flat,
topologically-ordered program of *fused step* objects and then executes
batches through it:

- **Fusion-aware grouped execution** -- all same-type ops that share one
  fused kernel of the searched plan (or one ASAP level of the graph set),
  and that share the same numeric parameters, execute as a *single*
  vectorized kernel call over their concatenated column segments, so the
  fusion decision is visible in wall-clock time, not just in the simulator.
- **Vectorized sparse kernels** -- steps call the module-level kernels in
  :mod:`repro.preprocessing.ops` (``sigridhash_kernel`` & co.) directly on
  CSR ``values``/``offsets`` arrays; the naive ``_transform``s call the very
  same functions, which is what makes the two paths bit-identical by
  construction.
- **Buffer arena** -- output arrays come from a size-classed pool that is
  recycled across batches instead of reallocated, so steady-state execution
  performs no large allocations for elementwise outputs.

The engine is output-equivalent to ``execute_graph_set``: for every column
the naive path produces, the compiled path produces the same name with
bit-identical contents (dense: exact float equality; sparse: exact
``values`` and ``offsets``). The naive executor remains the golden
reference; ``tests/preprocessing/test_engine_equivalence.py`` enforces the
contract property-based across all Table-1 operators.

Lease semantics: columns of the returned batch may reference arena-pooled
buffers that are recycled by the *next* ``execute`` call on the same
program. Pass ``copy_outputs=True`` (or copy downstream) when a batch must
outlive the next one.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .data import (
    Batch,
    DenseColumn,
    SparseColumn,
    concat_csr_blocks,
    rowwise_concat_csr,
)
from .executor import MissingColumnsError
from .graph import GraphSet
from .ops import (
    PreprocessingOp,
    boxcox_kernel,
    bucketize_kernel,
    cast_kernel,
    clamp_kernel,
    fillnull_kernel,
    firstx_kernel,
    logit_kernel,
    mapid_kernel,
    ngram_kernel,
    onehot_kernel,
    sigridhash_kernel,
)

__all__ = [
    "BufferArena",
    "CompileError",
    "CompiledProgram",
    "RETAIN_PER_CLASS",
    "compile_graph_set",
    "compile_op_groups",
    "plan_slots",
]


class CompileError(ValueError):
    """The graph set or fused op groups cannot be lowered to a program."""


# ----------------------------------------------------------------------
# Buffer arena
# ----------------------------------------------------------------------


#: Per-(dtype, block-size) retention cap. A program's steady-state
#: lease count per class is what it actually needs; anything beyond that
#: (e.g. a one-off giant batch, or a program swapped out for another) is
#: dead weight, so surplus blocks are dropped at ``reset`` time.
RETAIN_PER_CLASS = 64


class BufferArena:
    """Size-classed pool of output buffers recycled across batches.

    ``take(size, dtype)`` leases a buffer of exactly ``size`` elements
    backed by a power-of-two block; ``reset()`` returns every leased block
    to the free pool (called at the start of each ``execute``, so a batch's
    outputs stay valid until the *next* batch runs). After a warm-up batch,
    steady-state execution of the same program allocates no new blocks.

    Pool growth is bounded: each (dtype, block) size class retains at most
    ``RETAIN_PER_CLASS`` free blocks; surplus blocks returned by ``reset``
    are released to the allocator and counted in ``evicted_blocks``.
    """

    __slots__ = (
        "_free",
        "_leased",
        "allocated_blocks",
        "reused_blocks",
        "evicted_blocks",
    )

    def __init__(self) -> None:
        self._free: dict[tuple[np.dtype, int], list[np.ndarray]] = {}
        self._leased: list[tuple[tuple[np.dtype, int], np.ndarray]] = []
        self.allocated_blocks = 0
        self.reused_blocks = 0
        self.evicted_blocks = 0

    def reset(self) -> None:
        """Return every leased block to the pool (invalidates prior leases)."""
        for key, base in self._leased:
            pool = self._free.setdefault(key, [])
            if len(pool) < RETAIN_PER_CLASS:
                pool.append(base)
            else:
                self.evicted_blocks += 1
        self._leased.clear()

    def take(self, size: int, dtype: np.dtype | type) -> np.ndarray:
        """Lease a 1-D buffer of ``size`` elements of ``dtype``."""
        dtype = np.dtype(dtype)
        size = int(size)
        block = 1 << max(size - 1, 0).bit_length() if size else 1
        key = (dtype, block)
        pool = self._free.get(key)
        if pool:
            base = pool.pop()
            self.reused_blocks += 1
        else:
            base = np.empty(block, dtype=dtype)
            self.allocated_blocks += 1
        self._leased.append((key, base))
        return base[:size]

    def pooled_bytes(self) -> int:
        """Bytes currently held by the arena (free pool + live leases)."""
        total = 0
        for (dtype, block), pool in self._free.items():
            total += dtype.itemsize * block * len(pool)
        for (dtype, block), _ in self._leased:
            total += dtype.itemsize * block
        return total

    def hit_rate(self) -> float:
        """Fraction of ``take`` calls served from the pool."""
        takes = self.allocated_blocks + self.reused_blocks
        return self.reused_blocks / takes if takes else 0.0

    def stats(self) -> dict[str, int | float]:
        free_blocks = sum(len(v) for v in self._free.values())
        return {
            "allocated_blocks": self.allocated_blocks,
            "reused_blocks": self.reused_blocks,
            "leased_blocks": len(self._leased),
            "free_blocks": free_blocks,
            "evicted_blocks": self.evicted_blocks,
            "pooled_bytes": self.pooled_bytes(),
            "hit_rate": round(self.hit_rate(), 4),
        }


# ----------------------------------------------------------------------
# Program steps
#
# One step = one fused group = (at runtime) one vectorized kernel call.
# Steps read and write *column objects* in the register file ``regs`` --
# a dict keyed by column name holding trusted (validation-free) columns.
# ----------------------------------------------------------------------


def _concat_values(arrays: list[np.ndarray], arena: BufferArena, dtype: np.dtype) -> np.ndarray:
    total = sum(a.shape[0] for a in arrays)
    staged = arena.take(total, dtype)
    if total:
        np.concatenate(arrays, out=staged)
    return staged


class _DenseEwStep:
    """Fused elementwise dense op (FillNull / Logit / BoxCox / Cast)."""

    __slots__ = ("members", "kernel", "params", "out_dtype")

    def __init__(
        self,
        members: list[PreprocessingOp],
        kernel: Callable,
        params: tuple,
        out_dtype: np.dtype,
    ) -> None:
        self.members = members
        self.kernel = kernel
        self.params = params
        self.out_dtype = out_dtype

    def run(self, regs: dict, program: "CompiledProgram") -> None:
        arena = program.arena
        cols = [regs[op.inputs[0]] for op in self.members]
        # Members are fused per *parameter* key at compile time; inputs can
        # still disagree on dtype at runtime (e.g. a Cast upstream of one
        # member), and concatenating across dtypes would silently upcast.
        # Partition by input dtype so fused math stays bit-identical.
        by_dtype: dict[np.dtype, list[int]] = {}
        for i, col in enumerate(cols):
            by_dtype.setdefault(col.values.dtype, []).append(i)
        for dtype, idxs in by_dtype.items():
            if len(idxs) == 1:
                op, col = self.members[idxs[0]], cols[idxs[0]]
                out = arena.take(col.values.shape[0], self.out_dtype)
                self.kernel(col.values, *self.params, out=out)
                regs[op.output] = DenseColumn.trusted(op.output, out)
                continue
            arrays = [cols[i].values for i in idxs]
            staged = _concat_values(arrays, arena, dtype)
            # The staged copy is the step's own, and every dense kernel is
            # elementwise, so it can be overwritten when the dtypes agree.
            out = staged
            if dtype != self.out_dtype:
                out = arena.take(staged.shape[0], self.out_dtype)
            self.kernel(staged, *self.params, out=out)
            pos = 0
            for i in idxs:
                op = self.members[i]
                n = cols[i].values.shape[0]
                regs[op.output] = DenseColumn.trusted(op.output, out[pos : pos + n])
                pos += n


class _DenseToSparseStep:
    """Fused dense-to-sparse encoder (Onehot / Bucketize): one id per row."""

    __slots__ = ("members", "kernel", "params", "hash_size")

    def __init__(
        self,
        members: list[PreprocessingOp],
        kernel: Callable,
        params: tuple,
        hash_size: int,
    ) -> None:
        self.members = members
        self.kernel = kernel
        self.params = params
        self.hash_size = hash_size

    def run(self, regs: dict, program: "CompiledProgram") -> None:
        arena = program.arena
        iota = program.row_iota
        cols = [regs[op.inputs[0]] for op in self.members]
        by_dtype: dict[np.dtype, list[int]] = {}
        for i, col in enumerate(cols):
            by_dtype.setdefault(col.values.dtype, []).append(i)
        for dtype, idxs in by_dtype.items():
            if len(idxs) == 1:
                op, col = self.members[idxs[0]], cols[idxs[0]]
                out = arena.take(col.values.shape[0], np.int64)
                self.kernel(col.values, *self.params, out=out)
                regs[op.output] = SparseColumn.trusted(op.output, iota, out, self.hash_size)
                continue
            staged = _concat_values([cols[i].values for i in idxs], arena, dtype)
            out = arena.take(staged.shape[0], np.int64)
            self.kernel(staged, *self.params, out=out)
            pos = 0
            for i in idxs:
                op = self.members[i]
                n = cols[i].values.shape[0]
                regs[op.output] = SparseColumn.trusted(
                    op.output, iota, out[pos : pos + n], self.hash_size
                )
                pos += n


class _SparseEwStep:
    """Fused elementwise sparse op (SigridHash / Clamp / MapId).

    Offsets pass through untouched; only the fused value segments run
    through the kernel. A fused group runs in place over its staged
    concatenation (every sparse elementwise kernel is elementwise), so it
    takes one arena lease, not two.
    """

    __slots__ = ("members", "kernel", "params", "hash_size_fn")

    def __init__(
        self,
        members: list[PreprocessingOp],
        kernel: Callable,
        params: tuple,
        hash_size_fn: Callable[[SparseColumn], int],
    ) -> None:
        self.members = members
        self.kernel = kernel
        self.params = params
        self.hash_size_fn = hash_size_fn

    def run(self, regs: dict, program: "CompiledProgram") -> None:
        arena = program.arena
        cols = [regs[op.inputs[0]] for op in self.members]
        if len(cols) == 1:
            op, col = self.members[0], cols[0]
            out = arena.take(col.values.shape[0], np.int64)
            self.kernel(col.values, *self.params, out=out)
            regs[op.output] = SparseColumn.trusted(
                op.output, col.offsets, out, self.hash_size_fn(col)
            )
            return
        out = _concat_values([c.values for c in cols], arena, np.int64)
        self.kernel(out, *self.params, out=out)
        pos = 0
        for op, col in zip(self.members, cols):
            n = col.values.shape[0]
            regs[op.output] = SparseColumn.trusted(
                op.output, col.offsets, out[pos : pos + n], self.hash_size_fn(col)
            )
            pos += n


class _FirstXStep:
    """Fused list truncation: members stack row-block-wise into one CSR."""

    __slots__ = ("members", "x", "kernel")

    def __init__(
        self, members: list[PreprocessingOp], x: int, kernel: Callable = firstx_kernel
    ) -> None:
        self.members = members
        self.x = x
        self.kernel = kernel

    def run(self, regs: dict, program: "CompiledProgram") -> None:
        arena = program.arena
        firstx_kernel = self.kernel
        cols = [regs[op.inputs[0]] for op in self.members]
        if len(cols) == 1:
            op, col = self.members[0], cols[0]
            out_offsets = arena.take(col.offsets.shape[0], np.int64)
            offsets, values = firstx_kernel(
                col.offsets, col.values, self.x, out_offsets=out_offsets, alloc=arena.take
            )
            regs[op.output] = SparseColumn.trusted(op.output, offsets, values, col.hash_size)
            return
        offsets_list = [c.offsets for c in cols]
        values_list = [c.values for c in cols]
        total_rows = sum(o.shape[0] - 1 for o in offsets_list)
        total_nnz = sum(v.shape[0] for v in values_list)
        big_offsets = arena.take(total_rows + 1, np.int64)
        big_values = arena.take(total_nnz, np.int64)
        concat_csr_blocks(offsets_list, values_list, out_offsets=big_offsets, out_values=big_values)
        out_offsets = arena.take(total_rows + 1, np.int64)
        out_offsets, out_values = firstx_kernel(
            big_offsets, big_values, self.x, out_offsets=out_offsets, alloc=arena.take
        )
        row = 0
        for op, col in zip(self.members, cols):
            rows_i = col.offsets.shape[0] - 1
            seg = out_offsets[row : row + rows_i + 1]
            base = int(seg[0])
            member_offsets = arena.take(rows_i + 1, np.int64)
            np.subtract(seg, base, out=member_offsets)
            regs[op.output] = SparseColumn.trusted(
                op.output, member_offsets, out_values[base : int(seg[-1])], col.hash_size
            )
            row += rows_i


class _NgramStep:
    """Fused n-gram: members' row-wise input concats stacked, one window kernel."""

    __slots__ = ("members", "n", "out_hash_size", "kernel")

    def __init__(
        self,
        members: list[PreprocessingOp],
        n: int,
        out_hash_size: int,
        kernel: Callable = ngram_kernel,
    ) -> None:
        self.members = members
        self.n = n
        self.out_hash_size = out_hash_size
        self.kernel = kernel

    def run(self, regs: dict, program: "CompiledProgram") -> None:
        arena = program.arena
        inputs = [[regs[name] for name in op.inputs] for op in self.members]
        if len(inputs) == 1 and len(inputs[0]) == 1:
            offs, vals = inputs[0][0].offsets, inputs[0][0].values
        else:
            # Each member's row-wise concatenation is built straight into
            # one stacked arena CSR, member after member.
            total_rows = sum(cols[0].offsets.shape[0] - 1 for cols in inputs)
            total_nnz = sum(c.values.shape[0] for cols in inputs for c in cols)
            offs = arena.take(total_rows + 1, np.int64)
            vals = arena.take(total_nnz, np.int64)
            row, base = 0, 0
            for cols in inputs:
                rows_i = cols[0].offsets.shape[0] - 1
                nnz_i = sum(c.values.shape[0] for c in cols)
                seg = offs[row : row + rows_i + 1]
                rowwise_concat_csr(
                    [c.offsets for c in cols],
                    [c.values for c in cols],
                    out_offsets=seg,
                    out_values=vals[base : base + nnz_i],
                )
                # The offsets come back member-local; shifting them by base
                # also restores seg[0], the previous member's end.
                seg += base
                row += rows_i
                base += nnz_i
        out_offsets, grams = self.kernel(
            offs,
            vals,
            self.n,
            self.out_hash_size,
            out_offsets=arena.take(offs.shape[0], np.int64),
            alloc=arena.take,
        )
        if len(self.members) == 1:
            op = self.members[0]
            regs[op.output] = SparseColumn.trusted(op.output, out_offsets, grams, self.out_hash_size)
            return
        row = 0
        for op, cols in zip(self.members, inputs):
            rows_i = cols[0].offsets.shape[0] - 1
            seg = out_offsets[row : row + rows_i + 1]
            base = int(seg[0])
            member_offsets = arena.take(rows_i + 1, np.int64)
            np.subtract(seg, base, out=member_offsets)
            regs[op.output] = SparseColumn.trusted(
                op.output, member_offsets, grams[base : int(seg[-1])], self.out_hash_size
            )
            row += rows_i


class _GenericStep:
    """Fallback for operator types the engine has no fused lowering for.

    Runs each member's own ``_transform`` against trusted register columns,
    so third-party :class:`PreprocessingOp` subclasses still execute
    correctly (just without fusion or pooling).
    """

    __slots__ = ("members",)

    def __init__(self, members: list[PreprocessingOp]) -> None:
        self.members = members

    def run(self, regs: dict, program: "CompiledProgram") -> None:
        for op in self.members:
            result = op._transform([regs[name] for name in op.inputs])
            regs[result.name] = result


#: Kernel per op type with a fused lowering; other op types run as generic steps.
_REFERENCE_KERNELS = {
    "FillNull": fillnull_kernel,
    "Logit": logit_kernel,
    "BoxCox": boxcox_kernel,
    "Cast": cast_kernel,
    "Onehot": onehot_kernel,
    "Bucketize": bucketize_kernel,
    "SigridHash": sigridhash_kernel,
    "Clamp": clamp_kernel,
    "MapId": mapid_kernel,
    "FirstX": firstx_kernel,
    "Ngram": ngram_kernel,
}

def _build_step(op_name: str, members: list[PreprocessingOp]):
    first = members[0]
    kernel = _REFERENCE_KERNELS[op_name]
    if op_name == "FillNull":
        return _DenseEwStep(members, kernel, (first.fill_value,), np.dtype(np.float32))
    if op_name == "Logit":
        return _DenseEwStep(members, kernel, (first.eps,), np.dtype(np.float32))
    if op_name == "BoxCox":
        return _DenseEwStep(members, kernel, (first.lmbda,), np.dtype(np.float32))
    if op_name == "Cast":
        target = np.dtype(first.dtype)
        return _DenseEwStep(members, kernel, (target,), target)
    if op_name == "Onehot":
        return _DenseToSparseStep(members, kernel, (first.num_classes,), first.num_classes)
    if op_name == "Bucketize":
        return _DenseToSparseStep(members, kernel, (first.borders,), len(first.borders) + 1)
    if op_name == "SigridHash":
        return _SparseEwStep(
            members,
            kernel,
            (first.salt, first.max_value),
            lambda col, m=first.max_value: m,
        )
    if op_name == "Clamp":
        return _SparseEwStep(
            members,
            kernel,
            (first.lower, first.upper),
            lambda col, u=first.upper: max(col.hash_size, u + 1),
        )
    if op_name == "MapId":
        return _SparseEwStep(
            members,
            kernel,
            (first.multiplier, first.offset, first.table_size),
            lambda col, t=first.table_size: t,
        )
    if op_name == "FirstX":
        return _FirstXStep(members, first.x, kernel)
    if op_name == "Ngram":
        return _NgramStep(members, first.n, first.out_hash_size, kernel)
    return _GenericStep(members)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


class CompiledProgram:
    """A lowered graph set: an ordered list of fused steps plus its arena."""

    def __init__(
        self,
        steps: list,
        rows: int,
        required_inputs: frozenset[str],
        num_ops: int,
        arena: BufferArena | None = None,
    ) -> None:
        self.steps = steps
        self.rows = rows
        self.required_inputs = required_inputs
        self.num_ops = num_ops
        self.arena = arena if arena is not None else BufferArena()
        # Onehot/Bucketize emit one id per row: every such output shares this
        # constant offsets array instead of materializing its own arange.
        self.row_iota = np.arange(rows + 1, dtype=np.int64)
        self.row_iota.flags.writeable = False
        self.batches_executed = 0

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def max_fusion_degree(self) -> int:
        return max((len(s.members) for s in self.steps), default=0)

    def execute(self, batch: Batch, copy_outputs: bool = False) -> Batch:
        """Run the compiled program against ``batch``.

        Returns a new batch carrying the input columns (referenced, never
        mutated) plus every produced column, exactly like the naive
        executor's output. Produced columns lease arena buffers valid until
        the next ``execute`` on this program unless ``copy_outputs=True``.
        """
        if batch.size != self.rows:
            raise ValueError(
                f"batch has {batch.size} rows but the graph set was built for {self.rows}"
            )
        available = set(batch.dense) | set(batch.sparse)
        missing = sorted(self.required_inputs - available)
        if missing:
            raise MissingColumnsError(missing)
        self.arena.reset()
        regs: dict[str, DenseColumn | SparseColumn] = {}
        for name, col in batch.dense.items():
            regs[name] = col
        for name, col in batch.sparse.items():
            regs[name] = col
        for step in self.steps:
            step.run(regs, self)
        dense = dict(batch.dense)
        sparse = dict(batch.sparse)
        for name, col in regs.items():
            if name in batch.dense or name in batch.sparse:
                continue
            if copy_outputs:
                col = col.copy()
            if isinstance(col, DenseColumn):
                dense[name] = col
            else:
                sparse[name] = col
        out = Batch.__new__(Batch)
        out.dense = dense
        out.sparse = sparse
        self.batches_executed += 1
        return out


def _global_deps(ops: list[PreprocessingOp]) -> tuple[dict[str, int], list[tuple[int, int]]]:
    """Dependencies over the whole op list, inferred from output names.

    Unlike :class:`FeatureGraph`'s intra-graph edges, this also catches an
    op reading a column produced by *another* graph, so program ordering is
    safe for arbitrary graph sets.
    """
    produced: dict[str, int] = {}
    for idx, op in enumerate(ops):
        if op.output in produced:
            raise CompileError(f"column {op.output!r} produced by more than one op")
        produced[op.output] = idx
    deps: list[tuple[int, int]] = []
    for j, op in enumerate(ops):
        for name in op.inputs:
            i = produced.get(name)
            if i is not None and i != j:
                deps.append((i, j))
            elif i == j:
                raise CompileError(f"op producing {op.output!r} reads its own output")
    return produced, deps


def _asap_levels(num_ops: int, deps: list[tuple[int, int]]) -> list[int]:
    indeg = [0] * num_ops
    succ: list[list[int]] = [[] for _ in range(num_ops)]
    for i, j in deps:
        succ[i].append(j)
        indeg[j] += 1
    level = [0] * num_ops
    frontier = [i for i in range(num_ops) if indeg[i] == 0]
    seen = 0
    while frontier:
        node = frontier.pop()
        seen += 1
        for nxt in succ[node]:
            level[nxt] = max(level[nxt], level[node] + 1)
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                frontier.append(nxt)
    if seen != num_ops:
        raise CompileError("dependency graph contains a cycle")
    return level


def _numeric_key(op: PreprocessingOp):
    try:
        return op.numeric_key()
    except Exception:  # custom op with a broken key: never fuse it
        return ("__unfusable__", id(op))


def _group_and_lower(ops: list[PreprocessingOp], slots: list[int]) -> list:
    """Turn per-op slot indices into ordered fused steps.

    Ops sharing (slot, op type, numeric key) fuse into one step; steps are
    emitted slot by slot. Ops whose type has no fused lowering stay
    singleton generic steps.
    """
    grouped: dict[tuple[int, str], list[int]] = {}
    for idx, op in enumerate(ops):
        grouped.setdefault((slots[idx], op.op_name), []).append(idx)
    steps = []
    for (slot, op_name), members in sorted(grouped.items(), key=lambda kv: (kv[0][0], kv[1][0])):
        if op_name not in _REFERENCE_KERNELS:
            steps.append(_GenericStep([ops[i] for i in members]))
            continue
        by_key: dict = {}
        for i in members:
            by_key.setdefault(_numeric_key(ops[i]), []).append(i)
        for sub in by_key.values():
            steps.append(_build_step(op_name, [ops[i] for i in sub]))
    return steps


def _required_inputs(ops: list[PreprocessingOp], produced: dict[str, int]) -> frozenset[str]:
    needed: set[str] = set()
    for op in ops:
        needed.update(name for name in op.inputs if name not in produced)
    return frozenset(needed)


def plan_slots(
    graph_set: GraphSet, fusion: bool = True
) -> tuple[list[PreprocessingOp], list[int], dict[str, int]]:
    """Flatten a graph set into ``(ops, slots, produced)``.

    With ``fusion=True`` an op's slot is its ASAP depth over the global
    dependency graph, so same-type ops at equal depth fuse -- the greedy
    baseline the §6.2 MILP warm-starts from. With ``fusion=False`` each op
    gets its own slot in topological order (the ``RAP w/o fusion``
    ablation). The per-op slot indices are exactly what
    :func:`compile_graph_set` lowers from, exposed separately so the
    multi-core engine (:mod:`repro.preprocessing.parallel`) can shard the
    very same op/slot plan and stay bit-identical to the single-core
    program.
    """
    ops = [op for graph in graph_set for op in graph.ops]
    produced, deps = _global_deps(ops)
    levels = _asap_levels(len(ops), deps)
    if fusion:
        slots = levels
    else:
        order = sorted(range(len(ops)), key=lambda i: (levels[i], i))
        slots = [0] * len(ops)
        for pos, idx in enumerate(order):
            slots[idx] = pos
    return ops, slots, produced


def compile_graph_set(graph_set: GraphSet, fusion: bool = True) -> CompiledProgram:
    """Lower a graph set at its ASAP levels (see :func:`plan_slots`).

    Same-type ops in one slot fuse, further split by numeric parameter key
    so fused members compute identical math. A searched plan's kernel queue
    lowers through :func:`compile_op_groups` instead.
    """
    ops, slots, produced = plan_slots(graph_set, fusion)
    steps = _group_and_lower(ops, slots)
    return CompiledProgram(
        steps,
        rows=graph_set.rows,
        required_inputs=_required_inputs(ops, produced),
        num_ops=len(ops),
    )


def compile_op_groups(
    groups: Sequence[Sequence[PreprocessingOp]],
    rows: int,
    arena: BufferArena | None = None,
) -> CompiledProgram:
    """Lower pre-ordered fused op groups (the plan/codegen entry point).

    ``groups`` is an already-scheduled kernel queue: each inner sequence is
    one fused kernel's member ops, in execution order. Groups are split by
    numeric key like :func:`compile_graph_set` and the ordering is checked
    against the ops' column dependencies.
    """
    flat: list[PreprocessingOp] = []
    slots: list[int] = []
    for slot, group in enumerate(groups):
        if not group:
            continue
        names = {op.op_name for op in group}
        if len(names) > 1:
            raise CompileError(f"fused group {slot} mixes op types: {sorted(names)}")
        for op in group:
            flat.append(op)
            slots.append(slot)
    produced, deps = _global_deps(flat)
    for i, j in deps:
        if slots[j] <= slots[i]:
            raise CompileError(
                f"group order violates dependency: {flat[j].output!r} (group {slots[j]}) "
                f"must execute after {flat[i].output!r} (group {slots[i]})"
            )
    steps = _group_and_lower(flat, slots)
    return CompiledProgram(
        steps,
        rows=rows,
        required_inputs=_required_inputs(flat, produced),
        num_ops=len(flat),
        arena=arena,
    )
