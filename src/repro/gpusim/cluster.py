"""Multi-GPU cluster: devices plus interconnect plus synchronization.

A DLRM training iteration is bulk-synchronous across GPUs (the all-to-all
and the gradient all-reduce are barriers), so the per-iteration time of the
cluster is the slowest GPU's time plus any inter-GPU input redistribution
that sits on the critical path. This module holds that composition logic;
per-GPU physics lives in :mod:`repro.gpusim.device`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .device import CoRunPolicy, GpuDevice, IterationResult, RAP_POLICY, StageProfile
from .interconnect import Interconnect
from .kernel import KernelDesc
from .resources import GpuSpec, A100_SPEC

__all__ = ["ClusterIterationResult", "MultiGpuCluster"]


@dataclass
class ClusterIterationResult:
    """Aggregated outcome of one synchronous iteration across all GPUs.

    ``recovery_us_per_gpu`` is per-GPU fault-recovery wall time (failed
    kernel re-runs, retry backoff) injected by a fault-tolerant runtime; it
    extends that GPU's iteration before the bulk-synchronous barrier, so a
    single recovering GPU stalls the whole cluster.
    """

    iteration_time_us: float
    input_comm_us: float
    per_gpu: list[IterationResult] = field(default_factory=list)
    recovery_us_per_gpu: list[float] = field(default_factory=list)

    @property
    def max_exposed_preprocessing_us(self) -> float:
        return max((r.exposed_preprocessing_us for r in self.per_gpu), default=0.0)

    @property
    def max_recovery_us(self) -> float:
        return max(self.recovery_us_per_gpu, default=0.0)

    @property
    def degraded(self) -> bool:
        return self.max_recovery_us > 0.0


class MultiGpuCluster:
    """A fully connected node of GPUs (the DGX-A100 testbed by default).

    ``specs`` admits a heterogeneous fleet (mixed A100/H100-class devices):
    device ``i`` is built from ``specs[i]``, and the shared interconnect is
    sized by the *slowest* member's NVLink -- a mixed fabric negotiates down
    to its weakest link. With ``specs`` omitted every device uses ``spec``
    and behavior is unchanged.
    """

    def __init__(
        self,
        num_gpus: int,
        spec: GpuSpec = A100_SPEC,
        interconnect: Interconnect | None = None,
        specs: Sequence[GpuSpec] | None = None,
    ) -> None:
        if num_gpus < 1:
            raise ValueError("cluster needs at least one GPU")
        if specs is not None and len(specs) != num_gpus:
            raise ValueError(
                f"specs lists {len(specs)} GPUs but the cluster has {num_gpus}"
            )
        self.num_gpus = num_gpus
        self.spec = spec
        self.specs = tuple(specs) if specs is not None else None
        self.devices = [
            GpuDevice(self.spec_for_gpu(i), device_id=i) for i in range(num_gpus)
        ]
        if interconnect is None:
            fabric_spec = (
                min(self.specs, key=lambda s: s.nvlink_bw_gbps) if self.specs else spec
            )
            interconnect = Interconnect(fabric_spec)
        self.interconnect = interconnect

    def spec_for_gpu(self, gpu_id: int) -> GpuSpec:
        """The spec of one device (``spec`` for a homogeneous fleet)."""
        if not 0 <= gpu_id < self.num_gpus:
            raise ValueError(f"gpu_id {gpu_id} out of range for {self.num_gpus} GPUs")
        return self.specs[gpu_id] if self.specs is not None else self.spec

    @property
    def heterogeneous(self) -> bool:
        return self.specs is not None and len(set(s.name for s in self.specs)) > 1

    def shrink(self, lost_gpu: int) -> "MultiGpuCluster":
        """The survivor cluster after one GPU is permanently lost.

        Device ids are compacted into ``0..n-2`` (the bulk-synchronous
        iteration is indexed by position, not hardware id) and the
        interconnect object is carried over, so bandwidth assumptions are
        unchanged for the survivors.
        """
        if not 0 <= lost_gpu < self.num_gpus:
            raise ValueError(f"lost_gpu {lost_gpu} out of range for {self.num_gpus} GPUs")
        if self.num_gpus < 2:
            raise ValueError("cannot shrink a single-GPU cluster")
        survivors = (
            tuple(s for i, s in enumerate(self.specs) if i != lost_gpu)
            if self.specs is not None
            else None
        )
        return MultiGpuCluster(
            self.num_gpus - 1, self.spec, interconnect=self.interconnect, specs=survivors
        )

    def simulate_iteration(
        self,
        stages_per_gpu: Sequence[Sequence[StageProfile]],
        assignments_per_gpu: Sequence[Mapping[int, Sequence[KernelDesc]]] | None = None,
        trailing_per_gpu: Sequence[Sequence[KernelDesc]] | None = None,
        input_comm_bytes: float = 0.0,
        input_comm_transfers: int = 1,
        policy: CoRunPolicy = RAP_POLICY,
        recovery_us_per_gpu: Sequence[float] | None = None,
    ) -> ClusterIterationResult:
        """Simulate one bulk-synchronous iteration.

        Parameters
        ----------
        stages_per_gpu:
            Training stage pipeline for each GPU (usually identical replicas
            with embedding stages sized by the local shard).
        assignments_per_gpu / trailing_per_gpu:
            Per-GPU preprocessing kernel placement, as produced by a mapping
            + scheduling plan.
        input_comm_bytes:
            Total preprocessing output volume that must move between GPUs
            before embedding lookup can start. It serializes with training
            (it feeds the first stage), so it lands on the critical path --
            the mechanism that penalizes data-parallel mapping in Fig. 12.
        """
        if len(stages_per_gpu) != self.num_gpus:
            raise ValueError(
                f"expected stage pipelines for {self.num_gpus} GPUs, got {len(stages_per_gpu)}"
            )
        assignments_per_gpu = assignments_per_gpu or [{} for _ in range(self.num_gpus)]
        trailing_per_gpu = trailing_per_gpu or [() for _ in range(self.num_gpus)]
        if len(assignments_per_gpu) != self.num_gpus or len(trailing_per_gpu) != self.num_gpus:
            raise ValueError("assignment lists must match the number of GPUs")
        recovery = list(recovery_us_per_gpu) if recovery_us_per_gpu else [0.0] * self.num_gpus
        if len(recovery) != self.num_gpus:
            raise ValueError("recovery_us_per_gpu must match the number of GPUs")
        if any(r < 0 for r in recovery):
            raise ValueError("recovery times must be non-negative")

        results = [
            device.simulate_iteration(
                stages,
                assignments=assignment,
                trailing_kernels=trailing,
                policy=policy,
            )
            for device, stages, assignment, trailing in zip(
                self.devices, stages_per_gpu, assignments_per_gpu, trailing_per_gpu
            )
        ]
        comm = self.interconnect.redistribution_us(
            input_comm_bytes, self.num_gpus, num_transfers=input_comm_transfers
        )
        iteration = max(r.total_time_us + rec for r, rec in zip(results, recovery)) + comm
        return ClusterIterationResult(
            iteration_time_us=iteration,
            input_comm_us=comm,
            per_gpu=results,
            recovery_us_per_gpu=recovery,
        )
