"""Plan code generation (§4 step 3).

The paper's final step translates the searched co-running plan into
executable code: optimized CUDA kernels plus a PyTorch frontend. Our
equivalent emits a self-contained Python module that executes the plan's
preprocessing operators, per GPU, in scheduled order against a
:class:`repro.preprocessing.Batch` -- the functional counterpart of the
simulated kernels. The generated module has no dependency on the planner;
it reconstructs each operator from serialized parameters via
``repro.preprocessing.make_op``.
"""

from __future__ import annotations

import dataclasses
import io
from types import ModuleType

from ..gpusim.kernel import KernelDesc
from ..preprocessing.engine import BufferArena, CompiledProgram, compile_op_groups
from ..preprocessing.ops import PreprocessingOp
from .planner import RapPlan

__all__ = ["compile_plan", "generate_plan_module", "load_plan_module"]


def _op_entry(op: PreprocessingOp) -> tuple:
    """Serialize one operator as (op_name, inputs, output, params)."""
    params = dataclasses.asdict(op)
    params.pop("inputs", None)
    params.pop("output", None)
    return (op.op_name, tuple(op.inputs), op.output, params)


def _ops_for_kernel(kernel: KernelDesc, op_by_output: dict[str, PreprocessingOp]) -> list[PreprocessingOp]:
    """Resolve the concrete operators a (possibly fused/sharded) kernel runs."""
    names = kernel.meta.get("fused") if kernel.meta else None
    if names is None:
        names = [kernel.name]
    ops: list[PreprocessingOp] = []
    for name in names:
        # Kernel names look like "SigridHash:p0s1_hash" (+ shard suffixes).
        base = name.split("#")[0]
        if ":" not in base:
            continue
        output = base.split(":", 1)[1]
        op = op_by_output.get(output)
        if op is not None:
            ops.append(op)
    return ops


def _plan_walk(plan: RapPlan, gpu: int, op_by_output: dict[str, PreprocessingOp]):
    """One GPU's scheduled kernel queue, as both lowerings read it.

    Yields ``(stage, kernel, ops)``: the co-run stages' kernels in stage
    order, then the trailing kernels (``stage`` None). ``ops`` are the
    kernel's member ops not yielded before -- shard siblings of a
    distributed kernel repeat the same member ops, so only the first
    occurrence is kept -- and a kernel with none left is skipped.
    """
    seen: set[str] = set()
    assignments = plan.assignments_per_gpu[gpu]
    queue = [(stage, assignments[stage]) for stage in sorted(assignments)]
    queue.append((None, plan.trailing_per_gpu[gpu]))
    for stage, kernels in queue:
        for kernel in kernels:
            ops = []
            for op in _ops_for_kernel(kernel, op_by_output):
                if op.output not in seen:
                    seen.add(op.output)
                    ops.append(op)
            if ops:
                yield stage, kernel, ops


def compile_plan(
    plan: RapPlan,
    arena: BufferArena | None = None,
    rows: int | None = None,
) -> dict[int, CompiledProgram]:
    """Lower a searched plan's per-GPU kernel schedules into compiled programs.

    This is the in-process counterpart of :func:`generate_plan_module`: the
    same scheduled kernel queue (:func:`_plan_walk`), but lowered through
    the batch-execution engine so the fusion decisions baked into each
    kernel's ``meta["fused"]`` list execute as single vectorized calls.
    Returns one :class:`repro.preprocessing.engine.CompiledProgram` per GPU
    id, each sized for the workload's local batch (override with ``rows``,
    e.g. to match a differently-sized graph set). When ``arena`` is given
    all programs share it (safe because a plan's programs run sequentially
    in this process).
    """
    if rows is None:
        rows = plan.workload.local_batch
    op_by_output = {op.output: op for graph in plan.graph_set for op in graph.ops}
    return {
        gpu: compile_op_groups(
            [ops for _, _, ops in _plan_walk(plan, gpu, op_by_output)], rows=rows, arena=arena
        )
        for gpu in range(plan.workload.num_gpus)
    }


def generate_plan_module(plan: RapPlan) -> str:
    """Emit the plan as Python source for a standalone executable module.

    The module exposes ``SCHEDULE`` (per GPU: ordered operator specs with
    the stage/fusion slot each came from) and two entry points:
    ``run_gpu(gpu_id, batch)`` and ``run_all(batches)``.
    """
    op_by_output = {op.output: op for graph in plan.graph_set for op in graph.ops}
    out = io.StringIO()
    out.write('"""Auto-generated by repro.core.codegen: RAP co-running plan.\n\n')
    out.write(f"Workload: {plan.workload.config.name}, {plan.workload.num_gpus} GPUs, ")
    out.write(f"local batch {plan.workload.local_batch}.\n")
    out.write(f"Mapping strategy: {plan.mapping.strategy}; fusion ")
    out.write("enabled" if plan.fusion_enabled else "disabled")
    out.write(f"; input communication {plan.input_comm_bytes:.0f} bytes/iteration.\n")
    out.write('"""\n\n')
    out.write("from repro.preprocessing import make_op\n\n")
    out.write("# (op_name, inputs, output, params) per GPU, in scheduled order.\n")
    out.write("SCHEDULE = {\n")
    for gpu in range(plan.workload.num_gpus):
        out.write(f"    {gpu}: [\n")
        stages = plan.workload.stages_for_gpu(gpu)
        for stage, kernel, ops in _plan_walk(plan, gpu, op_by_output):
            slot = "trailing (exposed)" if stage is None else f"co-run with {stages[stage].name}"
            out.write(f"        # {slot}: {kernel.name}\n")
            for op in ops:
                name, inputs, output, params = _op_entry(op)
                out.write(f"        ({name!r}, {inputs!r}, {output!r}, {params!r}),\n")
        out.write("    ],\n")
    out.write("}\n\n\n")
    out.write(
        "def run_gpu(gpu_id, batch):\n"
        '    """Execute the preprocessing operators mapped to one GPU."""\n'
        "    for op_name, inputs, output, params in SCHEDULE[gpu_id]:\n"
        "        make_op(op_name, inputs, output, **params).apply(batch)\n"
        "    return batch\n\n\n"
        "def run_all(batches):\n"
        '    """Execute every GPU\'s schedule against its own batch object."""\n'
        "    for gpu_id, batch in batches.items():\n"
        "        run_gpu(gpu_id, batch)\n"
        "    return batches\n"
    )
    return out.getvalue()


def load_plan_module(source: str, name: str = "rap_generated_plan") -> ModuleType:
    """Compile and import generated plan source (for tests and examples)."""
    module = ModuleType(name)
    exec(compile(source, f"<{name}>", "exec"), module.__dict__)
    return module
