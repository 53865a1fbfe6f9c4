"""Co-running Cost Model (§5.3, Fig. 6).

Given a candidate co-running schedule -- preprocessing kernels assigned to
DLRM training stages -- the cost model predicts its quality *without*
simulating it: the overlapping capacity estimator supplies each stage's
capacity ``C_op`` and the latency predictor supplies each kernel's
standalone latency ``l_i``; the cost of a stage is the exposed latency
``L_delta = sum(l_i) - C_op`` when positive. A schedule whose every stage
satisfies ``L_delta <= 0`` co-runs for free and end-to-end training matches
the preprocessing-free ideal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..gpusim.device import StageProfile
from ..gpusim.kernel import KernelDesc
from .capacity import OverlappingCapacityEstimator, REFERENCE_PROBE
from .latency_predictor import PreprocessingLatencyPredictor

__all__ = ["StageCost", "CoRunCost", "CoRunningCostModel"]


@dataclass(frozen=True)
class StageCost:
    """Predicted cost of one stage's kernel assignment."""

    stage_name: str
    stage_index: int
    capacity_us: float
    assigned_latency_us: float

    @property
    def exposed_us(self) -> float:
        """The paper's L_delta for this stage, clamped at zero."""
        return max(0.0, self.assigned_latency_us - self.capacity_us)


@dataclass
class CoRunCost:
    """Predicted cost of a full per-GPU co-running schedule."""

    stage_costs: list[StageCost] = field(default_factory=list)
    trailing_latency_us: float = 0.0

    @property
    def exposed_us(self) -> float:
        """Total exposed preprocessing latency: the schedule's cost."""
        return sum(s.exposed_us for s in self.stage_costs) + self.trailing_latency_us

    @property
    def total_capacity_us(self) -> float:
        return sum(s.capacity_us for s in self.stage_costs)

    @property
    def is_contention_free(self) -> bool:
        return self.exposed_us <= 1e-9


class CoRunningCostModel:
    """Combines the capacity estimator and latency predictor (Fig. 6)."""

    def __init__(
        self,
        estimator: OverlappingCapacityEstimator,
        predictor: PreprocessingLatencyPredictor | None = None,
    ) -> None:
        self.estimator = estimator
        self.predictor = predictor

    def kernel_latency(self, kernel: KernelDesc) -> float:
        """Standalone latency: predicted when a model is fitted, else true.

        The true-latency fallback is the "oracle" cost model used in tests
        to isolate scheduling quality from predictor error.
        """
        if self.predictor is not None and self.predictor.is_fitted:
            return self.predictor.predict_kernel(kernel)
        return kernel.duration_us

    def stage_capacity(self, stage: StageProfile) -> float:
        """Overlapping capacity of one stage, in standalone-latency units.

        Under RAP every placed kernel is demand-fitted to the stage's
        leftover resources, so it advances at its full standalone rate
        while the stage runs: the stage hosts up to its own wall time of
        co-running latency for free. (The probe-discounted estimate of
        :class:`OverlappingCapacityEstimator` is still used to *rank*
        stages -- roomier leftovers fit kernels with less shard inflation.)
        """
        return stage.duration_us

    def stage_selection_score(self, stage: StageProfile) -> float:
        """Probe-based stage ranking score (leftover quality x duration)."""
        return self.estimator.estimate(stage, REFERENCE_PROBE)

    def evaluate(
        self,
        stages: Sequence[StageProfile],
        assignments: Mapping[int, Sequence[KernelDesc]],
        trailing: Sequence[KernelDesc] = (),
    ) -> CoRunCost:
        """Predict the exposed preprocessing latency of a candidate schedule.

        The planner prices every stage of every candidate here, so each
        frozen :class:`StageCost` is filled directly (it validates nothing),
        without the frozen constructor's per-field ``object.__setattr__``.
        """
        kernel_latency = self.kernel_latency
        costs: list[StageCost] = []
        for idx, stage in enumerate(stages):
            kernels = assignments.get(idx)
            cost = object.__new__(StageCost)
            object.__setattr__(cost, "__dict__", {
                "stage_name": stage.name,
                "stage_index": idx,
                "capacity_us": self.stage_capacity(stage),
                "assigned_latency_us": sum([kernel_latency(k) for k in kernels]) if kernels else 0,
            })
            costs.append(cost)
        trailing_latency = sum([kernel_latency(k) for k in trailing])
        return CoRunCost(stage_costs=costs, trailing_latency_us=trailing_latency)

