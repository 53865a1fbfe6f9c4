"""``repro.gpusim`` -- analytic multi-GPU co-running simulator.

This package stands in for the paper's DGX-A100 testbed. It models the two
contended resources RAP reasons about (SM issue slots and DRAM bandwidth),
the rate-sharing contention between co-running work, priority-stream and
MPS sharing semantics, and the NVSwitch interconnect.

Public surface
--------------
- :class:`GpuSpec`, :data:`A100_SPEC`, :class:`ResourceVector` -- hardware
  description and demand arithmetic.
- :class:`KernelDesc`, :func:`fuse_kernels` -- work units and the
  horizontal-fusion primitive.
- :class:`StageProfile`, :class:`GpuDevice`, :class:`CoRunPolicy`,
  :class:`IterationResult` -- single-GPU co-running simulation.
- :class:`MultiGpuCluster`, :class:`Interconnect` -- multi-GPU composition.
- :class:`UtilizationTrace` -- profiling output for the figures.
"""

from .resources import (
    A100_SPEC,
    GPU_PROFILES,
    H100_SPEC,
    V100_SPEC,
    GpuSpec,
    ResourceVector,
    resolve_profile,
    warps_to_sm_fraction,
)
from .kernel import KernelDesc, fuse_kernels
from .trace import TraceSegment, UtilizationTrace
from .device import (
    CoRunPolicy,
    GpuDevice,
    IterationResult,
    KernelSpan,
    MPS_POLICY,
    RAP_POLICY,
    STREAM_POLICY,
    StageProfile,
    StageSpan,
)
from .interconnect import Interconnect
from .cluster import ClusterIterationResult, MultiGpuCluster
from .export import render_gantt, to_chrome_trace

__all__ = [
    "A100_SPEC",
    "H100_SPEC",
    "V100_SPEC",
    "GPU_PROFILES",
    "GpuSpec",
    "ResourceVector",
    "resolve_profile",
    "warps_to_sm_fraction",
    "KernelDesc",
    "fuse_kernels",
    "TraceSegment",
    "UtilizationTrace",
    "CoRunPolicy",
    "GpuDevice",
    "IterationResult",
    "KernelSpan",
    "StageSpan",
    "StageProfile",
    "RAP_POLICY",
    "STREAM_POLICY",
    "MPS_POLICY",
    "Interconnect",
    "ClusterIterationResult",
    "MultiGpuCluster",
    "render_gantt",
    "to_chrome_trace",
]
