"""The multi-GPU DLRM training workload object.

:class:`TrainingWorkload` bundles a model config, an embedding placement,
a batch size, and a simulated cluster into the object every scheduling
policy consumes: it exposes each GPU's stage pipeline, the standalone
("ideal", preprocessing-free) iteration time, and a ``simulate`` entry
point that co-runs arbitrary per-GPU preprocessing kernel assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..gpusim.cluster import ClusterIterationResult, MultiGpuCluster
from ..gpusim.device import CoRunPolicy, RAP_POLICY, StagePipeline
from ..gpusim.kernel import KernelDesc
from ..gpusim.resources import GpuSpec, A100_SPEC
from .embedding import EmbeddingPlacement, place_tables, reshard_placement
from .model import DLRMConfig
from .stages import DEFAULT_CALIBRATION, StageCalibration, build_iteration_stages

__all__ = ["TrainingWorkload"]


@dataclass
class TrainingWorkload:
    """A hybrid-parallel DLRM training job on a simulated multi-GPU node."""

    config: DLRMConfig
    num_gpus: int
    local_batch: int
    spec: GpuSpec = A100_SPEC
    calibration: StageCalibration = DEFAULT_CALIBRATION
    placement: EmbeddingPlacement | None = None
    #: Optional per-GPU specs for a heterogeneous fleet (mixed A100/H100-class
    #: profiles). ``None`` keeps every device at ``spec``. Each GPU's stage
    #: pipeline is built against its own device, so a faster member finishes
    #: its stages sooner and exposes different co-running capacity.
    specs: tuple[GpuSpec, ...] | None = None
    cluster: MultiGpuCluster = field(init=False)
    _stage_cache: dict[int, StagePipeline] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.placement is None:
            self.placement = place_tables(self.config, self.num_gpus)
        if self.placement.num_gpus != self.num_gpus:
            raise ValueError("placement GPU count does not match workload GPU count")
        if self.specs is not None:
            self.specs = tuple(self.specs)
            if len(self.specs) != self.num_gpus:
                raise ValueError(
                    f"specs lists {len(self.specs)} GPUs but the workload has {self.num_gpus}"
                )
        self.cluster = MultiGpuCluster(self.num_gpus, self.spec, specs=self.specs)

    # ------------------------------------------------------------------
    # Stage pipelines
    # ------------------------------------------------------------------

    def spec_for_gpu(self, gpu_id: int) -> GpuSpec:
        """The device spec hosting GPU ``gpu_id`` (``spec`` if homogeneous)."""
        return self.cluster.spec_for_gpu(gpu_id)

    @property
    def heterogeneous(self) -> bool:
        return self.cluster.heterogeneous

    @property
    def fleet_profile(self) -> tuple[str, ...]:
        """Per-GPU spec names -- the fleet's serialized identity."""
        return tuple(self.spec_for_gpu(g).name for g in range(self.num_gpus))

    def stages_for_gpu(self, gpu_id: int) -> StagePipeline:
        if gpu_id not in self._stage_cache:
            self._stage_cache[gpu_id] = StagePipeline(
                build_iteration_stages(
                    self.config,
                    self.placement,
                    self.local_batch,
                    gpu_id,
                    spec=self.spec_for_gpu(gpu_id),
                    interconnect=self.cluster.interconnect,
                    calibration=self.calibration,
                )
            )
        return self._stage_cache[gpu_id]

    def all_stage_pipelines(self) -> list[StagePipeline]:
        return [self.stages_for_gpu(g) for g in range(self.num_gpus)]

    @property
    def global_batch(self) -> int:
        return self.local_batch * self.num_gpus

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------

    def shrunk(self, lost_gpu: int) -> tuple["TrainingWorkload", tuple[str, ...], float]:
        """The survivor workload after ``lost_gpu`` is permanently lost.

        Embedding tables sharded on the dead device are redistributed
        across survivors (:func:`repro.dlrm.embedding.reshard_placement`)
        and the cluster shrinks to the survivor set. The per-GPU batch is
        unchanged, so the global batch -- and with it peak throughput --
        contracts with the fleet. Returns ``(workload, moved_table_names,
        moved_bytes)``; the moved bytes price the redistribution.
        """
        placement, moved_tables, moved_bytes = reshard_placement(
            self.placement, self.config, lost_gpu
        )
        survivor = TrainingWorkload(
            config=self.config,
            num_gpus=self.num_gpus - 1,
            local_batch=self.local_batch,
            spec=self.spec,
            calibration=self.calibration,
            placement=placement,
            specs=(
                tuple(s for i, s in enumerate(self.specs) if i != lost_gpu)
                if self.specs is not None
                else None
            ),
        )
        # Reuse the surviving interconnect rather than re-deriving it, so
        # post-loss bandwidth assumptions match the original cluster's.
        survivor.cluster = self.cluster.shrink(lost_gpu)
        survivor._stage_cache.clear()
        return survivor, moved_tables, moved_bytes

    # ------------------------------------------------------------------
    # Ideal (preprocessing-free) performance
    # ------------------------------------------------------------------

    def ideal_iteration_us(self) -> float:
        """Standalone iteration time: the paper's "Ideal" upper bound."""
        result = self.cluster.simulate_iteration(self.all_stage_pipelines())
        return result.iteration_time_us

    def ideal_throughput(self) -> float:
        """Ideal training throughput in samples per second (global batch)."""
        it = self.ideal_iteration_us()
        return self.global_batch / (it * 1e-6) if it > 0 else 0.0

    # ------------------------------------------------------------------
    # Co-running simulation
    # ------------------------------------------------------------------

    def simulate(
        self,
        assignments_per_gpu: Sequence[Mapping[int, Sequence[KernelDesc]]] | None = None,
        trailing_per_gpu: Sequence[Sequence[KernelDesc]] | None = None,
        input_comm_bytes: float = 0.0,
        input_comm_transfers: int = 1,
        policy: CoRunPolicy = RAP_POLICY,
        recovery_us_per_gpu: Sequence[float] | None = None,
    ) -> ClusterIterationResult:
        """Simulate one iteration co-running the given preprocessing kernels."""
        return self.cluster.simulate_iteration(
            self.all_stage_pipelines(),
            assignments_per_gpu=assignments_per_gpu,
            trailing_per_gpu=trailing_per_gpu,
            input_comm_bytes=input_comm_bytes,
            input_comm_transfers=input_comm_transfers,
            policy=policy,
            recovery_us_per_gpu=recovery_us_per_gpu,
        )

    def throughput_from_iteration(self, iteration_us: float) -> float:
        return self.global_batch / (iteration_us * 1e-6) if iteration_us > 0 else 0.0
