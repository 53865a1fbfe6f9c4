"""``repro.baselines`` -- the comparison systems of §8.1.

TorchArrow-style CPU preprocessing, the sequential GPU baseline, and the
handcrafted CUDA-stream and MPS GPU-sharing baselines, all reporting
through a common :class:`BaselineReport`.
"""

from .common import BaselineReport, unfused_kernels_per_gpu
from .sequential import run_sequential_baseline
from .sharing import run_cuda_stream_baseline, run_mps_baseline
from .torcharrow import CpuWorkerPool, run_torcharrow_baseline

__all__ = [
    "BaselineReport",
    "unfused_kernels_per_gpu",
    "run_sequential_baseline",
    "run_cuda_stream_baseline",
    "run_mps_baseline",
    "run_torcharrow_baseline",
    "CpuWorkerPool",
]
