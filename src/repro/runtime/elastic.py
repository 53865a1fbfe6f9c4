"""Elastic GPU membership: shrinking the fleet after a terminal device loss.

A :data:`~repro.runtime.faults.GPU_LOST` fault cannot be retried or
re-sharded around -- the device is gone. Recovery is a *membership
change*: the cluster shrinks to the survivors, embedding shards owned by
the dead GPU are redistributed (priced in simulated wall time over PCIe,
like ``recovery_us_per_gpu``), and the planner produces an N-1 plan
warm-started from the surviving slice of the old mapping. The descent
repeats per loss down to a single GPU; losing that last device drops the
whole pipeline to CPU fallback.

This module holds the pure building blocks; the state machine that drives
them lives in :class:`repro.runtime.executor.FaultTolerantRuntime`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.mapping import GraphMapping, map_data_locality, rebuild_comm
from ..core.planner import RapPlan, RapPlanner
from ..dlrm.training import TrainingWorkload
from ..gpusim.resources import GpuSpec
from ..preprocessing.graph import DENSE_CONSUMER, GraphSet

__all__ = [
    "RESHARD_BASE_US",
    "MembershipChange",
    "reshard_cost_us",
    "surviving_mapping",
    "clone_planner",
]

#: Fixed control-plane cost of a membership change (NCCL communicator
#: teardown + rebuild, process-group re-rendezvous), independent of how
#: many embedding bytes move.
RESHARD_BASE_US = 5_000.0


@dataclass(frozen=True)
class MembershipChange:
    """One fleet-shrink event, recorded for reports and the run journal."""

    iteration: int
    #: Index of the lost GPU *in the fleet at the time of loss*.
    lost_gpu: int
    #: The same device's index in the original fleet (stable identity).
    lost_gpu_original: int
    survivors: int
    moved_tables: tuple[str, ...] = field(default_factory=tuple)
    moved_bytes: float = 0.0
    reshard_us: float = 0.0
    #: Epoch of the plan produced *after* this change.
    plan_epoch: int = 0

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "lost_gpu": self.lost_gpu,
            "lost_gpu_original": self.lost_gpu_original,
            "survivors": self.survivors,
            "moved_tables": list(self.moved_tables),
            "moved_bytes": self.moved_bytes,
            "reshard_us": self.reshard_us,
            "plan_epoch": self.plan_epoch,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MembershipChange":
        return cls(
            iteration=int(data["iteration"]),
            lost_gpu=int(data["lost_gpu"]),
            lost_gpu_original=int(data["lost_gpu_original"]),
            survivors=int(data["survivors"]),
            moved_tables=tuple(data.get("moved_tables", ())),
            moved_bytes=float(data.get("moved_bytes", 0.0)),
            reshard_us=float(data.get("reshard_us", 0.0)),
            plan_epoch=int(data.get("plan_epoch", 0)),
        )


def reshard_cost_us(moved_bytes: float, spec: GpuSpec) -> float:
    """Simulated wall time to redistribute ``moved_bytes`` of embedding rows.

    The dead GPU's shards are restored from the survivors' optimizer-state
    replicas, so the traffic crosses host PCIe once. Mirrors the shape of
    the retry policy's ``recovery_us_per_gpu`` pricing: a fixed base plus a
    bandwidth term.
    """
    if moved_bytes < 0:
        raise ValueError("moved_bytes must be non-negative")
    return RESHARD_BASE_US + moved_bytes * 1e-3 / spec.pcie_bw_gbps


def surviving_mapping(
    previous: RapPlan,
    lost_gpu: int,
    workload: TrainingWorkload,
    graph_set: GraphSet,
) -> GraphMapping:
    """Re-index the old plan's mapping onto the survivor fleet.

    Dense-consumer graphs are rebuilt per-slice on every survivor (each
    GPU's MLP replica preprocesses exactly its own slice, and the global
    batch contracted with the fleet). Sparse-consumer graphs keep their
    surviving placements, re-indexed into the survivor GPU space at the
    new global batch; a graph whose every placement died falls back to its
    data-locality position (the post-reshard table owner). Communication
    totals are rebuilt from scratch -- the old ones priced a different
    fleet.
    """
    old = previous.mapping
    n = old.num_gpus
    if workload.num_gpus != n - 1:
        raise ValueError(
            f"survivor workload has {workload.num_gpus} GPUs; expected {n - 1}"
        )
    if not 0 <= lost_gpu < n:
        raise ValueError(f"lost_gpu {lost_gpu} out of range for {n} GPUs")
    remap = {g: i for i, g in enumerate(g for g in range(n) if g != lost_gpu)}
    local = workload.local_batch
    global_batch = workload.global_batch
    fallback = map_data_locality(graph_set, workload)
    mapping = GraphMapping(strategy=old.strategy, num_gpus=workload.num_gpus)
    for graph in graph_set:
        if graph.consumer == DENSE_CONSUMER:
            mapping.placements[graph.name] = [(g, local) for g in range(workload.num_gpus)]
            continue
        kept = sorted(
            remap[g] for g, _ in old.placements.get(graph.name, ()) if g != lost_gpu
        )
        if kept:
            mapping.placements[graph.name] = [(g, global_batch) for g in kept]
        else:
            mapping.placements[graph.name] = list(
                fallback.placements.get(graph.name, [(0, global_batch)])
            )
    rebuild_comm(mapping, graph_set, workload)
    return mapping


def clone_planner(planner: RapPlanner, workload: TrainingWorkload) -> RapPlanner:
    """A planner with ``planner``'s knobs re-targeted at a new workload.

    Shares the plan cache, so a membership change benefits from every
    plan the larger fleet already paid for.
    """
    return RapPlanner(
        workload,
        predictor=planner.cost_model.predictor,
        mapping_strategy=planner.mapping_strategy,
        fusion_enabled=planner.fusion_enabled,
        interleaving_enabled=planner.interleaving_enabled,
        cache=planner.cache,
    )
