"""Lowering a DLRM iteration to resource-annotated training stages.

Hybrid-parallel DLRM training has a fixed per-iteration stage pipeline:
embedding lookup (memory-bound), all-to-all exchange (communication),
bottom MLP, interaction, top MLP forward (compute-bound), the mirrored
backward stages, the embedding update (memory-bound), and the data-parallel
gradient all-reduce. Each stage gets a duration from an analytic
flops/bytes model and an (SM, DRAM) utilization profile; the alternation of
compute-heavy and memory-heavy profiles is what produces the Fig.-1a
utilization swings RAP harvests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..gpusim.device import StageProfile
from ..gpusim.interconnect import Interconnect
from ..gpusim.resources import GpuSpec, ResourceVector, A100_SPEC
from .embedding import EmbeddingPlacement
from .model import DLRMConfig

__all__ = ["StageCalibration", "DEFAULT_CALIBRATION", "build_iteration_stages"]


@dataclass(frozen=True)
class StageCalibration:
    """Efficiency constants mapping analytic work to wall time.

    These fold every micro-effect (tensor-core utilization, cache hit
    rates, kernel tail effects) into a handful of per-stage efficiency
    factors. Values are set to make stage-time *ratios* credible for an
    A100 at DLRM-scale shapes; absolute times only need to be consistent
    with the preprocessing cost model, which uses the same device spec.

    Only the two fields vary: the sensitivity study
    (:mod:`repro.experiments.sensitivity`) sweeps them. The rest are class
    constants.
    """

    mlp_flops_efficiency: float = 0.60
    embedding_bw_efficiency: float = 0.30
    interaction_flops_efficiency: ClassVar[float] = 0.35
    optimizer_bw_efficiency: ClassVar[float] = 0.60
    backward_multiplier: ClassVar[float] = 2.0
    embedding_update_multiplier: ClassVar[float] = 1.6

    # Utilization profiles (sm, dram) per stage family.
    mlp_util: ClassVar[tuple[float, float]] = (0.88, 0.30)
    interaction_util: ClassVar[tuple[float, float]] = (0.70, 0.50)
    embedding_util: ClassVar[tuple[float, float]] = (0.22, 0.92)
    embedding_bwd_util: ClassVar[tuple[float, float]] = (0.28, 0.95)
    comm_util: ClassVar[tuple[float, float]] = (0.08, 0.22)
    optimizer_util: ClassVar[tuple[float, float]] = (0.35, 0.80)


DEFAULT_CALIBRATION = StageCalibration()


def _mlp_time_us(flops: float, spec: GpuSpec, efficiency: float) -> float:
    return flops / (spec.fp32_tflops * 1e12 * efficiency) * 1e6


def _bw_time_us(nbytes: float, spec: GpuSpec, efficiency: float) -> float:
    return nbytes / (spec.dram_bytes_per_us * efficiency)


def build_iteration_stages(
    config: DLRMConfig,
    placement: EmbeddingPlacement,
    local_batch: int,
    gpu_id: int,
    spec: GpuSpec = A100_SPEC,
    interconnect: Interconnect | None = None,
    calibration: StageCalibration = DEFAULT_CALIBRATION,
) -> list[StageProfile]:
    """Build GPU ``gpu_id``'s stage pipeline for one training iteration.

    ``local_batch`` is the per-GPU batch; embedding stages operate on the
    global batch (every GPU looks up its local tables for all samples
    before the all-to-all redistributes by sample).
    """
    if local_batch <= 0:
        raise ValueError("local_batch must be positive")
    num_gpus = placement.num_gpus
    if not 0 <= gpu_id < num_gpus:
        raise IndexError(f"gpu_id {gpu_id} out of range for {num_gpus} GPUs")
    ic = interconnect or Interconnect(spec)
    cal = calibration
    global_batch = local_batch * num_gpus

    lookup_bytes = placement.lookup_bytes_per_gpu(config, global_batch)[gpu_id]
    emb_fwd_us = _bw_time_us(lookup_bytes, spec, cal.embedding_bw_efficiency)
    emb_bwd_us = emb_fwd_us * cal.embedding_update_multiplier

    local_tables = len(placement.tables_on_gpu(gpu_id))
    a2a_bytes = global_batch * local_tables * config.embedding_dim * 4.0
    a2a_us = ic.all_to_all_us(a2a_bytes, num_gpus)

    bottom_fwd_us = _mlp_time_us(
        config.dense_arch.forward_flops(local_batch), spec, cal.mlp_flops_efficiency
    )
    top_fwd_us = _mlp_time_us(
        config.top_arch.forward_flops(local_batch), spec, cal.mlp_flops_efficiency
    )
    interaction_us = _mlp_time_us(
        config.interaction_flops(local_batch), spec, cal.interaction_flops_efficiency
    )

    allreduce_us = ic.all_reduce_us(config.mlp_param_bytes, num_gpus)
    optimizer_us = _bw_time_us(config.mlp_param_bytes * 3.0, spec, cal.optimizer_bw_efficiency)

    mlp = ResourceVector(*cal.mlp_util)
    inter = ResourceVector(*cal.interaction_util)
    emb = ResourceVector(*cal.embedding_util)
    emb_bwd = ResourceVector(*cal.embedding_bwd_util)
    comm = ResourceVector(*cal.comm_util)
    opt = ResourceVector(*cal.optimizer_util)

    bwd = cal.backward_multiplier
    return [
        StageProfile("emb_lookup_fwd", emb_fwd_us, emb),
        StageProfile("all_to_all_fwd", a2a_us, comm),
        StageProfile("mlp_bottom_fwd", bottom_fwd_us, mlp),
        StageProfile("interaction_fwd", interaction_us, inter),
        StageProfile("mlp_top_fwd", top_fwd_us, mlp),
        StageProfile("mlp_top_bwd", top_fwd_us * bwd, mlp),
        StageProfile("interaction_bwd", interaction_us * bwd, inter),
        StageProfile("mlp_bottom_bwd", bottom_fwd_us * bwd, mlp),
        StageProfile("all_to_all_bwd", a2a_us, comm),
        StageProfile("emb_update", emb_bwd_us, emb_bwd),
        StageProfile("mlp_allreduce", allreduce_us, comm),
        StageProfile("optimizer_step", optimizer_us, opt),
    ]
