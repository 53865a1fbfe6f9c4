"""Fair-share capacity carving between tenants on one fleet.

RAP's core observation is that training stages leave per-stage GPU
capacity (SM and DRAM headroom) on the table, and preprocessing kernels
can run in that leftover. With several tenants on one fleet the same
observation applies between tenants: each tenant may only fill a *share*
of the leftover, so from any one tenant's point of view the training
stages look proportionally busier. A stage with utilization ``u`` whose
leftover ``1 - u`` is carved down to a fraction ``s`` presents an
effective utilization of::

    u' = 1 - s * (1 - u)

which is exactly what :class:`CarvedTrainingWorkload` feeds the existing
planner and simulator -- no planner or cost-model change is needed; the
carve is just a different (busier) workload.

Shares come from :func:`weighted_max_min`: classic weighted max-min
fairness over a unit leftover pool, where weights are tenant priority
classes. A lone tenant always receives share exactly ``1.0`` and
:func:`carved_workload` then returns the *base workload object itself*,
so a single-tenant service run is bit-identical to a standalone run --
not merely numerically close (``1 - 1.0 * (1 - u)`` would round-trip
through floats).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..dlrm.stages import build_iteration_stages
from ..dlrm.training import TrainingWorkload
from ..gpusim.device import StagePipeline, StageProfile
from ..gpusim.resources import ResourceVector

__all__ = [
    "weighted_max_min",
    "carve_stage",
    "CarvedTrainingWorkload",
    "carved_workload",
]


def weighted_max_min(
    demands: dict[str, float],
    weights: dict[str, float] | None = None,
    capacity: float = 1.0,
) -> dict[str, float]:
    """Weighted max-min fair allocation of ``capacity`` across tenants.

    ``demands[t]`` caps what tenant ``t`` can use (a tenant never receives
    more than it asks for); ``weights[t]`` scales its fair share (priority
    classes map to weights). Unclaimed capacity from capped tenants is
    redistributed among the rest by weight until everyone is either
    satisfied or the pool is exhausted. Deterministic: ties and iteration
    order follow sorted tenant names.

    A single unconstrained tenant receives exactly ``capacity`` (no float
    residue), which :func:`carved_workload` relies on for bit-identity.
    """
    if not demands:
        return {}
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    weights = weights or {}
    shares = {name: 0.0 for name in demands}
    unsatisfied = sorted(demands)
    remaining = capacity
    while unsatisfied and remaining > 1e-12:
        total_weight = sum(weights.get(name, 1.0) for name in unsatisfied)
        if total_weight <= 0:
            break
        satisfied: list[str] = []
        allocated = 0.0
        for name in unsatisfied:
            fair = remaining * weights.get(name, 1.0) / total_weight
            room = demands[name] - shares[name]
            if room <= fair:
                shares[name] += room
                allocated += room
                satisfied.append(name)
            else:
                shares[name] += fair
                allocated += fair
        remaining -= allocated
        if not satisfied:
            break  # everyone took their full fair share: pool is spent
        unsatisfied = [name for name in unsatisfied if name not in satisfied]
    return shares


def carve_stage(stage: StageProfile, share: float) -> StageProfile:
    """``stage`` as seen by a tenant holding ``share`` of its leftover."""
    util = stage.utilization
    carved = ResourceVector(
        sm=min(1.0, 1.0 - share * (1.0 - min(util.sm, 1.0))),
        dram=min(1.0, 1.0 - share * (1.0 - min(util.dram, 1.0))),
    )
    return dataclasses.replace(stage, utilization=carved)


@dataclass
class CarvedTrainingWorkload(TrainingWorkload):
    """A :class:`TrainingWorkload` whose leftover capacity is carved.

    Identical to the base workload except that every stage pipeline is
    post-processed through :func:`carve_stage`, so the planner's capacity
    estimator, the MILP fusion pass, and the cluster simulator all see
    the reduced headroom without knowing tenants exist. The carved stage
    tuples flow into :func:`repro.core.plan_cache.workload_fingerprint`,
    so plans searched at different shares never collide in the cache.
    """

    share: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.share <= 1.0:
            raise ValueError(f"share must be in (0, 1], got {self.share}")
        super().__post_init__()

    def stages_for_gpu(self, gpu_id: int) -> StagePipeline:
        if gpu_id not in self._stage_cache:
            full = build_iteration_stages(
                self.config,
                self.placement,
                self.local_batch,
                gpu_id,
                spec=self.spec_for_gpu(gpu_id),
                interconnect=self.cluster.interconnect,
                calibration=self.calibration,
            )
            self._stage_cache[gpu_id] = StagePipeline(carve_stage(s, self.share) for s in full)
        return self._stage_cache[gpu_id]


def carved_workload(base: TrainingWorkload, share: float) -> TrainingWorkload:
    """``base`` carved down to ``share`` of its leftover capacity.

    ``share == 1.0`` returns ``base`` itself: a sole tenant must plan and
    run on the exact same object a standalone run would, so its plans,
    cache keys, and simulated latencies are bit-identical.
    """
    if not 0.0 < share <= 1.0:
        raise ValueError(f"share must be in (0, 1], got {share}")
    if share == 1.0:
        return base
    return CarvedTrainingWorkload(
        config=base.config,
        num_gpus=base.num_gpus,
        local_batch=base.local_batch,
        spec=base.spec,
        calibration=base.calibration,
        placement=base.placement,
        specs=base.specs,
        share=share,
    )
