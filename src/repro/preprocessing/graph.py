"""Preprocessing graphs: per-feature operator DAGs and their collections.

The paper maps *input preprocessing graphs* -- one small DAG per produced
feature -- onto trainer GPUs (§3, Design Space 1). A :class:`FeatureGraph`
holds the operator chain/DAG producing one output feature along with its
*consumer* (which embedding table, or the replicated dense stack, reads the
output). A :class:`GraphSet` is the full preprocessing workload of one
input batch: the unit the mapping and scheduling machinery operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..gpusim.kernel import KernelDesc
from ..gpusim.resources import GpuSpec, A100_SPEC
from .data import Batch
from .ops import PreprocessingOp

__all__ = ["DENSE_CONSUMER", "FeatureGraph", "GraphSet"]

DENSE_CONSUMER = "dense"


@dataclass
class FeatureGraph:
    """The operator DAG producing one output feature.

    Parameters
    ----------
    name:
        Identifier of the produced feature (unique within a GraphSet).
    ops:
        Operators in topological order. Dependencies are inferred from
        column names: an op depends on every earlier op whose output it
        reads. Raw batch columns are free inputs.
    consumer:
        ``DENSE_CONSUMER`` when the output feeds the replicated MLP stack
        (needed by every GPU), otherwise the name of the embedding table
        that consumes the output (needed only where that table's shard
        lives).
    avg_list_length:
        Expected ids per row flowing through the graph's sparse columns;
        used when lowering operators to cost-model kernels.
    """

    name: str
    ops: list[PreprocessingOp]
    consumer: str
    avg_list_length: float = 2.0

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError(f"feature graph {self.name!r} has no operators")
        produced: dict[str, int] = {}
        for idx, op in enumerate(self.ops):
            if op.output in produced:
                raise ValueError(
                    f"feature graph {self.name!r}: column {op.output!r} produced twice"
                )
            produced[op.output] = idx
        self._edges: list[tuple[int, int]] = []
        for idx, op in enumerate(self.ops):
            for col in op.inputs:
                if col in produced:
                    self._edges.append((produced[col], idx))
        self._validate_topological()

    def _validate_topological(self) -> None:
        for src, dst in self._edges:
            if src >= dst:
                raise ValueError(
                    f"feature graph {self.name!r} ops are not in topological order"
                )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Intra-graph dependency edges as (producer_idx, consumer_idx)."""
        return tuple(self._edges)

    @property
    def output_op(self) -> PreprocessingOp:
        return self.ops[-1]

    def raw_inputs(self) -> set[str]:
        """Raw batch columns the graph reads (not produced by any of its ops)."""
        produced = {op.output for op in self.ops}
        return {col for op in self.ops for col in op.inputs if col not in produced}

    # ------------------------------------------------------------------
    # Execution and cost
    # ------------------------------------------------------------------

    def execute(self, batch: Batch) -> None:
        """Run every operator against ``batch`` in order (functional path)."""
        for op in self.ops:
            op.apply(batch)

    def kernels(self, rows: int, spec: GpuSpec = A100_SPEC) -> list[KernelDesc]:
        """Lower every operator to its cost-model kernel."""
        return [
            op.gpu_kernel(rows, spec, avg_list_length=self.avg_list_length)
            for op in self.ops
        ]

    def standalone_latency_us(self, rows: int, spec: GpuSpec = A100_SPEC) -> float:
        """Total standalone GPU latency of the unfused graph."""
        return sum(k.duration_us for k in self.kernels(rows, spec))

    def cpu_latency_us(self, rows: int) -> float:
        """Total single-worker CPU latency (TorchArrow substrate currency)."""
        return sum(op.cpu_latency_us(rows, self.avg_list_length) for op in self.ops)

    def output_nbytes(self, rows: int) -> float:
        """Estimated size of the graph's final output tensor."""
        return self.output_op.output_bytes(rows, self.avg_list_length)


class GraphSet:
    """All feature graphs preprocessing one input batch.

    This is the workload unit that RAP maps across GPUs and schedules
    against training stages. Graph names must be unique; operator output
    columns must be unique across the whole set (each op writes its own
    column of the shared batch).
    """

    def __init__(self, graphs: Iterable[FeatureGraph], rows: int = 4096) -> None:
        self.graphs: list[FeatureGraph] = list(graphs)
        if rows <= 0:
            raise ValueError("rows must be positive")
        self.rows = rows
        names = [g.name for g in self.graphs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature graph names in GraphSet")
        outputs = [op.output for g in self.graphs for op in g.ops]
        if len(set(outputs)) != len(outputs):
            raise ValueError("operator output columns must be unique across the GraphSet")
        #: Content digests of this set (``repro.core.plan_cache``), each
        #: stored with the content it was taken from.
        self.digests: dict[str, tuple] = {}

    def __iter__(self) -> Iterator[FeatureGraph]:
        return iter(self.graphs)

    def __len__(self) -> int:
        return len(self.graphs)

    def __getitem__(self, name: str) -> FeatureGraph:
        for g in self.graphs:
            if g.name == name:
                return g
        raise KeyError(f"no feature graph named {name!r}")

    @property
    def total_ops(self) -> int:
        return sum(g.num_ops for g in self.graphs)

    @property
    def num_features(self) -> int:
        return len(self.graphs)

    @property
    def ops_per_feature(self) -> float:
        return self.total_ops / self.num_features if self.graphs else 0.0

    def consumers(self) -> set[str]:
        return {g.consumer for g in self.graphs}

    def graphs_for_consumer(self, consumer: str) -> list[FeatureGraph]:
        return [g for g in self.graphs if g.consumer == consumer]

    def execute(self, batch: Batch) -> None:
        """Execute every graph against a batch (functional path)."""
        for g in self.graphs:
            g.execute(batch)

    def kernels(self, spec: GpuSpec = A100_SPEC) -> list[KernelDesc]:
        out: list[KernelDesc] = []
        for g in self.graphs:
            out.extend(g.kernels(self.rows, spec))
        return out

    def standalone_latency_us(self, spec: GpuSpec = A100_SPEC) -> float:
        return sum(g.standalone_latency_us(self.rows, spec) for g in self.graphs)

    def cpu_latency_us(self) -> float:
        return sum(g.cpu_latency_us(self.rows) for g in self.graphs)

    def summary(self) -> dict[str, float]:
        return {
            "num_features": self.num_features,
            "total_ops": self.total_ops,
            "ops_per_feature": round(self.ops_per_feature, 2),
            "rows": self.rows,
        }
