"""Shared plumbing for the comparison systems of §8.1.

Every baseline reports through :class:`BaselineReport` so the experiment
harnesses can tabulate them uniformly, and the GPU-sharing baselines share
the same data-parallel mapping + unfused kernel lowering (the paper's
handcrafted baselines use the default DP input pipeline with one kernel
per operator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dlrm.training import TrainingWorkload
from ..gpusim.kernel import KernelDesc
from ..core.mapping import map_data_parallel
from ..preprocessing.graph import GraphSet

__all__ = ["BaselineReport", "unfused_kernels_per_gpu"]


@dataclass
class BaselineReport:
    """One system's measured (simulated) end-to-end performance."""

    system: str
    iteration_us: float
    throughput: float
    training_time_us: float = 0.0
    exposed_preprocessing_us: float = 0.0
    details: dict = field(default_factory=dict)


def unfused_kernels_per_gpu(
    graph_set: GraphSet,
    workload: TrainingWorkload,
) -> tuple[list[list[KernelDesc]], float, int]:
    """DP-mapped, unfused preprocessing kernels for each GPU.

    Every GPU lowers its batch slice of every feature graph to one kernel
    per operator in dependency order. Returns the per-GPU kernel lists plus
    the input-communication volume and per-feature transfer count the DP
    mapping incurs.
    """
    mapping = map_data_parallel(graph_set, workload)
    per_gpu: list[list[KernelDesc]] = []
    for gpu in range(workload.num_gpus):
        kernels: list[KernelDesc] = []
        for graph, rows in mapping.graphs_on_gpu(graph_set, gpu):
            kernels.extend(graph.kernels(rows, workload.spec))
        per_gpu.append(kernels)
    return per_gpu, mapping.input_comm_bytes, mapping.input_comm_transfers

