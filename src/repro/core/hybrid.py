"""Hybrid CPU+GPU input preprocessing (§10, "Extend RAP to Hybrid ...").

The paper's discussion: when the preprocessing workload is exceptionally
intensive and leftover GPU capacity is limited, RAP can segment the
preprocessing graph into a GPU part (sized to the total overlapping
capacity) and a CPU part handed to a CPU preprocessing framework
(GoldMiner-style worker pools). This module implements that segmentation:

1. Estimate the cluster's total overlapping capacity per iteration.
2. Keep the most GPU-profitable graphs (highest CPU-to-GPU cost ratio) on
   the GPUs until the capacity budget is filled.
3. Send the remainder to a :class:`CpuWorkerPool` running concurrently
   with training.

The steady-state iteration time is then
``max(RAP co-run iteration, CPU part's batch production time)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Sequence

from ..dlrm.training import TrainingWorkload
from ..gpusim.kernel import KernelDesc
from ..preprocessing.graph import DENSE_CONSUMER, FeatureGraph, GraphSet
from .capacity import OverlappingCapacityEstimator
from .planner import RapPlanner, RapRunReport

__all__ = [
    "CpuWorkerPool",
    "HybridSplit",
    "HybridReport",
    "HybridPlanner",
    "degraded_pool",
    "cpu_fallback_production_us",
]

# Single-CPU-worker slowdown vs. the GPU for a preprocessing kernel whose
# operator identity is no longer available (a sharded/fused descriptor).
# Matches the order of magnitude of the per-op cpu_latency_us/gpu ratios in
# repro.preprocessing.ops.
GPU_TO_CPU_SLOWDOWN = 25.0


@dataclass(frozen=True)
class CpuWorkerPool:
    """A pool of preprocessing workers on the host CPUs.

    ``workers_per_gpu`` follows the paper's setup (8). ``parallel_efficiency``
    accounts for batch-granularity scheduling, and ``max_effective_workers``
    models the node-level ceiling -- host memory bandwidth and core budget
    are shared by all workers, so beyond a point extra workers add nothing.
    This ceiling is why the paper's TorchArrow curves barely move from 4 to
    8 GPUs (Fig. 9): the host is already saturated while the GPUs idle.
    """

    workers_per_gpu: int = 8
    max_effective_workers: int = 24
    parallel_efficiency: ClassVar[float] = 0.85

    def effective_workers(self, num_gpus: int) -> float:
        workers = max(1, self.workers_per_gpu * num_gpus)
        return min(workers, self.max_effective_workers) * self.parallel_efficiency

    def batch_production_us(self, graph_set: GraphSet, num_gpus: int) -> float:
        """Steady-state time to produce one *global* batch of input.

        Each GPU consumes one local batch per iteration; the pool must
        produce ``num_gpus`` local batches per iteration. Work divides
        across the effective workers.
        """
        total_work_us = graph_set.cpu_latency_us() * num_gpus
        return total_work_us / self.effective_workers(num_gpus)


@dataclass
class HybridSplit:
    """The graph-set segmentation: which features stay on the GPUs."""

    gpu_graphs: GraphSet
    cpu_graphs: GraphSet
    capacity_budget_us: float
    gpu_latency_us: float

    @property
    def num_cpu_features(self) -> int:
        return len(self.cpu_graphs)


@dataclass
class HybridReport:
    """Steady-state outcome of the hybrid pipeline."""

    split: HybridSplit
    rap_report: RapRunReport
    cpu_production_us: float

    @property
    def iteration_us(self) -> float:
        """The slower of the GPU co-run iteration and the CPU pipeline."""
        return max(self.rap_report.iteration_us, self.cpu_production_us)

    @property
    def throughput(self) -> float:
        workload = self.rap_report.plan.workload
        return workload.throughput_from_iteration(self.iteration_us)


def degraded_pool(pool: CpuWorkerPool, worker_fraction: float) -> CpuWorkerPool:
    """A pool running with only ``worker_fraction`` of its workers alive.

    Models the post-crash regime of a CPU preprocessing worker pool: until
    the supervisor respawns the dead workers, throughput drops in
    proportion to the surviving workers (the tf.data-service failure mode).
    """
    if not 0.0 < worker_fraction <= 1.0:
        raise ValueError("worker_fraction must be in (0, 1]")
    return replace(
        pool,
        workers_per_gpu=max(1, int(pool.workers_per_gpu * worker_fraction)),
        max_effective_workers=max(1, int(pool.max_effective_workers * worker_fraction)),
    )


def cpu_fallback_production_us(
    pool: CpuWorkerPool,
    kernels: Sequence[KernelDesc],
    num_gpus: int,
) -> float:
    """Steady-state cost of producing ``kernels``' outputs on the CPU pool.

    Used by the fault-tolerant runtime's last degradation rung: a kernel
    that keeps failing on every GPU placement is evicted to the host. The
    kernel's GPU-standalone latency is converted to single-worker CPU work
    and divided across the pool, exactly like
    :meth:`CpuWorkerPool.batch_production_us`.
    """
    if not kernels:
        return 0.0
    total_cpu_us = sum(k.duration_us for k in kernels) * GPU_TO_CPU_SLOWDOWN
    return total_cpu_us / pool.effective_workers(num_gpus)


class HybridPlanner:
    """Segments a preprocessing workload across GPUs and a CPU pool."""

    def __init__(
        self,
        workload: TrainingWorkload,
        pool: CpuWorkerPool | None = None,
        capacity_fill: float = 0.9,
        planner: RapPlanner | None = None,
    ) -> None:
        if not 0.0 < capacity_fill <= 1.0:
            raise ValueError("capacity_fill must be in (0, 1]")
        self.workload = workload
        self.pool = pool or CpuWorkerPool()
        self.capacity_fill = capacity_fill
        self.planner = planner or RapPlanner(workload)
        self._estimator = OverlappingCapacityEstimator(workload.spec)

    # ------------------------------------------------------------------

    def total_capacity_us(self) -> float:
        """Cluster-wide overlapping capacity per iteration (time units)."""
        per_gpu = [
            sum(stage.duration_us for stage in self.workload.stages_for_gpu(g))
            for g in range(self.workload.num_gpus)
        ]
        return sum(per_gpu)

    def split(self, graph_set: GraphSet) -> HybridSplit:
        """Choose the GPU subset greedily by GPU-profitability.

        Dense graphs always stay on the GPUs (their outputs feed the local
        MLP replicas and are cheap). Sparse graphs are ranked by the ratio
        of their CPU cost to their GPU cost -- the features a CPU pool is
        worst at (feature generation) are kept on the GPUs first -- and
        admitted until ``capacity_fill`` of the total capacity is used.
        """
        budget = self.total_capacity_us() * self.capacity_fill
        spec = self.workload.spec
        global_batch = self.workload.global_batch

        # RAP will horizontally fuse whatever lands on the GPUs, so the
        # capacity a graph consumes is its share of the *fused* plan, not
        # its unfused standalone cost. One fusion pass over the whole set
        # yields the amortization ratio.
        from .fusion import HorizontalFusionPass

        unfused_total = graph_set.standalone_latency_us(spec)
        fused_total = HorizontalFusionPass(spec).run(list(graph_set), graph_set.rows).total_latency_us
        amortization = fused_total / unfused_total if unfused_total > 0 else 1.0

        gpu_side: list[FeatureGraph] = []
        cpu_side: list[FeatureGraph] = []
        used = 0.0
        for graph in graph_set:
            if graph.consumer == DENSE_CONSUMER:
                gpu_side.append(graph)
                used += (
                    graph.standalone_latency_us(self.workload.local_batch, spec)
                    * self.workload.num_gpus
                    * amortization
                )
        movable = [g for g in graph_set if g.consumer != DENSE_CONSUMER]
        movable.sort(
            key=lambda g: g.cpu_latency_us(global_batch)
            / max(g.standalone_latency_us(global_batch, spec), 1e-9),
            reverse=True,
        )
        for graph in movable:
            cost = graph.standalone_latency_us(global_batch, spec) * amortization
            if used + cost <= budget:
                gpu_side.append(graph)
                used += cost
            else:
                cpu_side.append(graph)
        return HybridSplit(
            gpu_graphs=GraphSet(gpu_side, rows=graph_set.rows),
            cpu_graphs=GraphSet(cpu_side, rows=graph_set.rows),
            capacity_budget_us=budget,
            gpu_latency_us=used,
        )

    def plan_and_evaluate(self, graph_set: GraphSet) -> HybridReport:
        """Segment, plan the GPU part with RAP, price the CPU part."""
        split = self.split(graph_set)
        rap_report = self.planner.plan_and_evaluate(split.gpu_graphs)
        if len(split.cpu_graphs):
            cpu_us = self.pool.batch_production_us(split.cpu_graphs, self.workload.num_gpus)
        else:
            cpu_us = 0.0
        return HybridReport(split=split, rap_report=rap_report, cpu_production_us=cpu_us)
