"""Handcrafted GPU-sharing baselines (§8.1): CUDA streams and MPS.

Both co-run the default data-parallel input pipeline's unfused kernels
with training, issued sequentially from the top of the iteration and
resource-oblivious; they differ only in the co-running policy the
simulator charges:

- **CUDA stream**: preprocessing kernels go to one additional low-priority
  stream per GPU, and the hardware scheduler interleaves them with
  training. They pay stream-priority issue stalls and contend with
  whichever training stage is live.
- **MPS**: two processes per GPU -- one training, one preprocessing --
  share a CUDA context through NVIDIA MPS so their kernels run
  concurrently. Spatial sharing is cleaner than priority streams (lower
  issue stalls and demand inflation), which is why this baseline lands
  between the stream baseline and RAP in the paper's Fig. 9/10.
"""

from __future__ import annotations

from ..dlrm.training import TrainingWorkload
from ..gpusim.device import MPS_POLICY, STREAM_POLICY, CoRunPolicy
from ..preprocessing.executor import estimate_data_preparation
from ..preprocessing.graph import GraphSet
from .common import BaselineReport, unfused_kernels_per_gpu

__all__ = ["run_cuda_stream_baseline", "run_mps_baseline"]


def run_cuda_stream_baseline(graph_set: GraphSet, workload: TrainingWorkload) -> BaselineReport:
    return _run_shared(graph_set, workload, STREAM_POLICY, "cuda_stream")


def run_mps_baseline(graph_set: GraphSet, workload: TrainingWorkload) -> BaselineReport:
    return _run_shared(graph_set, workload, MPS_POLICY, "mps")


def _run_shared(
    graph_set: GraphSet,
    workload: TrainingWorkload,
    policy: CoRunPolicy,
    system: str,
) -> BaselineReport:
    kernels_per_gpu, comm_bytes, comm_transfers = unfused_kernels_per_gpu(graph_set, workload)
    assignments = [({0: kernels} if kernels else {}) for kernels in kernels_per_gpu]
    result = workload.simulate(
        assignments_per_gpu=assignments,
        input_comm_bytes=comm_bytes,
        input_comm_transfers=max(1, comm_transfers),
        policy=policy,
    )
    prep_us = estimate_data_preparation(graph_set, spec=workload.spec).total_us / workload.num_gpus
    iteration = result.iteration_time_us + prep_us
    return BaselineReport(
        system=system,
        iteration_us=iteration,
        throughput=workload.throughput_from_iteration(iteration),
        training_time_us=workload.ideal_iteration_us(),
        exposed_preprocessing_us=result.max_exposed_preprocessing_us,
        details={
            "comm_bytes": comm_bytes,
            "training_slowdown": max(r.training_slowdown for r in result.per_gpu),
        },
    )
