"""Resource-aware Co-running Scheduling (Algorithm 1, §7.1).

Given one GPU's training stage pipeline and its fused preprocessing kernel
queue, produce the per-stage kernel assignment that minimizes exposed
preprocessing latency:

1. Predict the total preprocessing latency of the fused kernels.
2. Sort stages by overlapping capacity, selecting from the highest until
   the selected capacity covers the predicted total.
3. Walk the pipeline in execution order; at each selected stage, pack
   kernels from the queue front while capacity remains, sharding the first
   kernel that does not fit (lines 21-26) and pushing the remainder back.
4. Kernels the pipeline cannot absorb become trailing (exposed) work.

On top of the paper's pseudocode, every kernel placed into a stage is
demand-sharded to fit the stage's leftover resources
(:func:`repro.core.fusion.shard_to_fit_demand`), which is what guarantees
the placement is contention-free on the simulated device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..gpusim.device import StageProfile
from ..gpusim.kernel import KernelDesc
from ..gpusim.resources import ResourceVector
from .cost_model import CoRunCost, CoRunningCostModel
from .fusion import fit_kernel_to_leftover, shard_by_latency

__all__ = ["CoRunSchedule", "ResourceAwareScheduler"]


@dataclass
class CoRunSchedule:
    """A per-GPU co-running schedule plus its predicted cost."""

    assignments: dict[int, list[KernelDesc]] = field(default_factory=dict)
    trailing: list[KernelDesc] = field(default_factory=list)
    cost: CoRunCost | None = None

    @property
    def num_assigned(self) -> int:
        return sum(len(v) for v in self.assignments.values())

    @property
    def exposed_us(self) -> float:
        return self.cost.exposed_us if self.cost is not None else 0.0

    def assigned_kernels(self) -> list[KernelDesc]:
        out: list[KernelDesc] = []
        for idx in sorted(self.assignments):
            out.extend(self.assignments[idx])
        return out


class ResourceAwareScheduler:
    """Algorithm 1: pack fused kernels into training-stage capacity.

    The scheduler fits each kernel into each stage leftover once
    (:meth:`_fit`); a planner's scheduler drops those fits when the
    planner moves to another graph set.
    """

    def __init__(self, cost_model: CoRunningCostModel) -> None:
        self.cost_model = cost_model
        self._fits: dict[tuple, tuple[KernelDesc, list[KernelDesc] | None]] = {}

    def clear_fits(self) -> None:
        """Drop the fit memo (a planner does so when its graph set changes)."""
        self._fits.clear()

    def _fit(self, kernel: KernelDesc, leftover: ResourceVector) -> list[KernelDesc] | None:
        """:func:`fit_kernel_to_leftover`, fitted once per kernel and leftover.

        The entry holds the kernel, so no other kernel can take its ``id``
        while it lives; ``_pack`` copies the returned list before editing
        it. A kernel that already fits is returned without an entry.
        """
        if kernel.demand.fits_within(leftover):
            return [kernel]
        key = (id(kernel), leftover.sm, leftover.dram)
        hit = self._fits.get(key)
        if hit is None:
            pieces = fit_kernel_to_leftover(kernel, leftover, self.cost_model.estimator.spec)
            hit = self._fits[key] = (kernel, pieces)
        return hit[1]

    # ------------------------------------------------------------------

    def schedule(
        self,
        stages: Sequence[StageProfile],
        fused_kernels: Sequence[KernelDesc],
    ) -> CoRunSchedule:
        """Produce the co-running schedule for one GPU (Algorithm 1)."""
        queue: list[KernelDesc] = list(fused_kernels)
        assignments: dict[int, list[KernelDesc]] = {}
        if not queue:
            schedule = CoRunSchedule(assignments={}, trailing=[])
            schedule.cost = self.cost_model.evaluate(stages, {}, ())
            return schedule

        # Line 2-5: total predicted preprocessing latency.
        total_latency = sum(self.cost_model.kernel_latency(k) for k in queue)

        # Line 6-12: select stages by their probe-ranked capacity, highest
        # first, until the selected capacity covers the predicted
        # preprocessing latency. The probe score prefers stages with roomy
        # leftovers, where kernels fit with the least shard inflation.
        scores = [self.cost_model.stage_selection_score(s) for s in stages]
        order = sorted(range(len(stages)), key=lambda i: scores[i], reverse=True)
        selected: set[int] = set()
        covered = 0.0
        for idx in order:
            if covered >= total_latency:
                break
            if scores[idx] <= 0:
                continue
            selected.add(idx)
            covered += scores[idx]

        # Line 13-29: greedy packing in pipeline order, followed by a spill
        # pass over the not-initially-selected stages: demand sharding can
        # consume more capacity than the prediction the selection was based
        # on, and leftover work is better placed in *any* remaining capacity
        # than exposed.
        used_per_stage = self._pack(stages, selected, queue, assignments, {})
        if queue:
            spill = set(range(len(stages))) - selected
            self._pack(stages, spill, queue, assignments, used_per_stage)

        schedule = CoRunSchedule(assignments=assignments, trailing=queue)
        schedule.cost = self.cost_model.evaluate(stages, assignments, queue)
        return schedule

    def _pack(
        self,
        stages: Sequence[StageProfile],
        eligible: set[int],
        queue: list[KernelDesc],
        assignments: dict[int, list[KernelDesc]],
        used_per_stage: dict[int, float],
    ) -> dict[int, float]:
        """One greedy packing sweep over ``eligible`` stages in pipeline order."""
        capacities = [self.cost_model.stage_capacity(s) for s in stages]
        for idx, stage in enumerate(stages):
            if idx not in eligible or not queue:
                continue
            used = used_per_stage.get(idx, 0.0)
            leftover = stage.leftover()
            while queue:
                remaining = capacities[idx] - used
                if remaining <= 1e-9:
                    break
                kernel = queue.pop(0)
                # Resource-aware fitting: degree-reduce / demand-shard the
                # kernel so every piece co-runs with this stage for free.
                pieces = self._fit(kernel, leftover)
                if pieces is None:
                    # Leftover too thin for this kernel in any shape: skip
                    # the stage for it, try the next stage.
                    queue.insert(0, kernel)
                    break
                # Commit the maximal prefix of pieces the remaining capacity
                # admits (lines 21-26: shard, place what fits, push back the
                # rest). Piece latencies are the true (possibly inflated)
                # costs, so capacity accounting stays honest.
                committed: list[KernelDesc] = []
                acc = 0.0
                cut = len(pieces)
                for i, piece in enumerate(pieces):
                    latency = self.cost_model.kernel_latency(piece)
                    if acc + latency > remaining:
                        cut = i
                        break
                    committed.append(piece)
                    acc += latency
                rest = list(pieces[cut:])
                if rest and (not committed or acc < remaining):
                    # Try latency-sharding the first leftover piece so the
                    # tail of this stage's capacity is not wasted.
                    shards = shard_by_latency(rest[0], remaining - acc)
                    if shards is not None:
                        first, remainder = shards
                        if first.demand.fits_within(leftover):
                            committed.append(first)
                            acc += self.cost_model.kernel_latency(first)
                            rest[0] = remainder
                if committed:
                    assignments.setdefault(idx, []).extend(committed)
                    used += acc
                if rest:
                    # Push leftover pieces back for the next stage.
                    queue[0:0] = rest
                    if not committed:
                        break
                    if len(rest) == len(pieces):
                        break
                    continue
            used_per_stage[idx] = used
        return used_per_stage
