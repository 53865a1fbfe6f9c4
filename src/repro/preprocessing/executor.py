"""Functional execution of preprocessing graphs plus data-preparation costs.

Two concerns live here:

1. **Correctness path** -- actually running a :class:`GraphSet` against a
   :class:`Batch` of synthetic Criteo data (numpy transforms standing in
   for the paper's CUDA kernels), so examples and tests can observe real
   outputs.
2. **Data preparation cost** -- before a preprocessing kernel can run, the
   host must allocate device buffers and copy the raw batch to the GPU.
   §6.3 of the paper separates this CPU-side work from kernel execution
   and interleaves it across batches; this module quantifies it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.resources import GpuSpec, A100_SPEC
from .data import Batch
from .graph import FeatureGraph, GraphSet

__all__ = [
    "DataPreparation",
    "PreprocessingError",
    "MissingColumnsError",
    "KernelExecutionError",
    "KernelOOMError",
    "WorkerPoolError",
    "DeviceLostError",
    "execute_graph_set",
    "estimate_data_preparation",
]

_ALLOC_US_PER_TENSOR = 2.0
_HOST_DISPATCH_US_PER_OP = 5.0


class PreprocessingError(RuntimeError):
    """Base class for failures raised by the input-preprocessing pipeline.

    The taxonomy below is shared with the fault-tolerant runtime
    (:mod:`repro.runtime`), which injects and recovers from exactly these
    failure classes; catching :class:`PreprocessingError` covers them all.
    """


class MissingColumnsError(PreprocessingError):
    """The input batch lacks raw columns the graph set reads."""

    def __init__(self, columns: list[str]) -> None:
        self.columns = list(columns)
        super().__init__(
            "batch is missing raw input column(s) required by the graph set: "
            + ", ".join(self.columns)
        )


class KernelExecutionError(PreprocessingError):
    """A preprocessing kernel failed mid-execution (launch error, bad state)."""

    def __init__(self, kernel: str, detail: str = "execution fault") -> None:
        self.kernel = kernel
        super().__init__(f"kernel {kernel!r} failed: {detail}")


class KernelOOMError(KernelExecutionError):
    """A (typically fused) kernel exceeded device memory."""

    def __init__(self, kernel: str) -> None:
        super().__init__(kernel, "out of device memory")


class WorkerPoolError(PreprocessingError):
    """The CPU preprocessing worker pool crashed or lost workers."""


class DeviceLostError(PreprocessingError):
    """A GPU dropped off the bus permanently (XID-style terminal fault).

    Unlike the per-kernel failures above, no retry or re-shard on the same
    device can succeed: recovery requires a cluster membership change.
    """

    def __init__(self, gpu: int) -> None:
        self.gpu = gpu
        super().__init__(f"GPU {gpu} lost (terminal device fault)")


@dataclass(frozen=True)
class DataPreparation:
    """CPU-side work that must precede a batch's preprocessing kernels."""

    alloc_us: float
    h2d_copy_us: float
    dispatch_us: float

    @property
    def total_us(self) -> float:
        return self.alloc_us + self.h2d_copy_us + self.dispatch_us


def execute_graph_set(graph_set: GraphSet, batch: Batch) -> Batch:
    """Run every feature graph against a copy of ``batch``.

    The input batch is left untouched; the returned batch additionally
    carries every intermediate and output column the graphs produced.
    """
    work = batch.copy()
    if work.size != graph_set.rows:
        raise ValueError(
            f"batch has {work.size} rows but the graph set was built for {graph_set.rows}"
        )
    available = set(work.dense) | set(work.sparse)
    required: set[str] = set()
    for graph in graph_set:
        required.update(graph.raw_inputs())
    missing = sorted(required - available)
    if missing:
        raise MissingColumnsError(missing)
    graph_set.execute(work)
    return work


def _graph_raw_bytes(graph: FeatureGraph, rows: int) -> float:
    """Bytes of raw input the graph pulls onto the GPU."""
    raw = graph.raw_inputs()
    dense_cols = sum(1 for c in raw if c.startswith("dense"))
    sparse_cols = len(raw) - dense_cols
    dense_bytes = dense_cols * rows * 4
    sparse_bytes = sparse_cols * rows * (graph.avg_list_length * 8 + 8)
    return dense_bytes + sparse_bytes


def data_preparation_terms(graph: FeatureGraph, rows: int) -> tuple[int, float]:
    """One graph's ``(operators, raw input bytes)`` at ``rows``: the terms
    :func:`estimate_data_preparation` sums over a GPU's graphs."""
    return graph.num_ops, _graph_raw_bytes(graph, rows)


def data_preparation_from_terms(
    terms: list[tuple[int, float]], spec: GpuSpec = A100_SPEC
) -> DataPreparation:
    """The preparation cost of graphs with these :func:`data_preparation_terms`,
    summed in the order given."""
    total_ops = sum(ops for ops, _ in terms)
    raw_bytes = sum(nbytes for _, nbytes in terms)
    return DataPreparation(
        alloc_us=_ALLOC_US_PER_TENSOR * total_ops,
        h2d_copy_us=spec.h2d_time_us(raw_bytes),
        dispatch_us=_HOST_DISPATCH_US_PER_OP * total_ops,
    )


def estimate_data_preparation(
    graphs: list[FeatureGraph] | GraphSet,
    rows: int | None = None,
    spec: GpuSpec = A100_SPEC,
) -> DataPreparation:
    """Estimate the CPU-side preparation cost for a set of feature graphs.

    Allocation is charged per produced tensor, host dispatch per operator,
    and the host-to-device copy by raw input volume over PCIe. These are
    the quantities inter-batch workload interleaving (§6.3) hides under the
    previous batch's kernels.
    """
    if isinstance(graphs, GraphSet):
        rows = graphs.rows
        graph_list = list(graphs)
    else:
        graph_list = list(graphs)
        if rows is None:
            raise ValueError("rows is required when passing a plain graph list")
    return data_preparation_from_terms([data_preparation_terms(g, rows) for g in graph_list], spec)
