"""TorchArrow-style CPU input-preprocessing baseline (§8.1).

The state-of-the-art CPU path the paper compares against: a DataFrame
preprocessing pipeline executing on host cores, 8 workers per GPU,
feeding the GPU trainers. The pipeline is throughput-bound: when the CPU
cannot produce batches as fast as the GPUs consume them, training stalls
on input -- which is why the paper's TorchArrow curves barely improve as
GPUs are added (Fig. 9) while RAP scales nearly linearly. The host pool's
cost model, :class:`repro.core.hybrid.CpuWorkerPool`, lives in the core
because RAP's hybrid split and the runtime's CPU fallback price with it too.
"""

from __future__ import annotations

from ..core.hybrid import CpuWorkerPool
from ..dlrm.training import TrainingWorkload
from ..preprocessing.graph import GraphSet
from .common import BaselineReport

__all__ = ["CpuWorkerPool", "run_torcharrow_baseline"]


def run_torcharrow_baseline(
    graph_set: GraphSet,
    workload: TrainingWorkload,
    pool: CpuWorkerPool | None = None,
) -> BaselineReport:
    """Pipelined CPU preprocessing feeding GPU training.

    The CPU pipeline runs ahead of training (double buffering), so the
    steady-state iteration time is the max of GPU iteration time and CPU
    batch production time.
    """
    pool = pool or CpuWorkerPool()
    training_us = workload.ideal_iteration_us()
    production_us = pool.batch_production_us(graph_set, workload.num_gpus)
    iteration = max(training_us, production_us)
    return BaselineReport(
        system="torcharrow",
        iteration_us=iteration,
        throughput=workload.throughput_from_iteration(iteration),
        training_time_us=training_us,
        exposed_preprocessing_us=max(0.0, production_us - training_us),
        details={
            "cpu_batch_production_us": production_us,
            "workers": pool.workers_per_gpu * workload.num_gpus,
            "input_bound": production_us > training_us,
        },
    )
