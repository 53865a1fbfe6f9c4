"""Handling runtime variability of DLRM inputs (§10, "Handling Runtime
Variability").

Online click streams drift: average id-list lengths change, which changes
both the preprocessing kernel costs and the embedding stages' durations.
A plan searched for yesterday's distribution mis-sizes its kernels against
today's capacity. The paper's answer is periodic, cheap plan regeneration:
re-profile the overlapping capacity under the new distribution and re-run
the (fast) search.

This module implements that loop:

- :func:`drift_graph_set` -- derive the workload under a new average list
  length (the drift axis that moves both sides of the capacity equation);
- :class:`AdaptiveReplanner` -- monitor drift, decide when to regenerate
  (relative change beyond a threshold), and time the regeneration (which
  the paper reports as "a few minutes" on real hardware and is milliseconds
  here).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..dlrm.training import TrainingWorkload
from ..preprocessing.graph import FeatureGraph, GraphSet
from .planner import RapPlan, RapPlanner, RapRunReport

__all__ = ["drift_graph_set", "scale_plan_kernels", "AdaptationEvent", "AdaptiveReplanner"]


def drift_graph_set(graph_set: GraphSet, list_length_scale: float) -> GraphSet:
    """The same feature graphs under a drifted id-list-length distribution.

    Multiplies every graph's average list length by ``list_length_scale``
    (>1: users interact more; <1: less), which rescales every sparse
    operator's work and therefore its kernel cost.
    """
    if list_length_scale <= 0:
        raise ValueError("list_length_scale must be positive")
    drifted = [
        FeatureGraph(
            name=g.name,
            ops=g.ops,
            consumer=g.consumer,
            avg_list_length=g.avg_list_length * list_length_scale,
        )
        for g in graph_set
    ]
    return GraphSet(drifted, rows=graph_set.rows)


def scale_plan_kernels(
    plan: RapPlan, scale: float
) -> tuple[list[dict[int, list]], list[list]]:
    """A plan's placement with every kernel duration scaled by ``scale``.

    This is the first-order stale-plan effect of input drift: the placement
    (which stage hosts which kernel) is frozen, but each kernel's work --
    and therefore its duration -- tracks the live distribution. Returns
    ``(assignments_per_gpu, trailing_per_gpu)`` ready for
    :meth:`repro.dlrm.training.TrainingWorkload.simulate`.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if scale == 1.0:
        # Nothing to scale. Recovery rewrites the lists (kernels are frozen),
        # so the containers are still fresh copies.
        return (
            [{idx: list(kernels) for idx, kernels in per_gpu.items()}
             for per_gpu in plan.assignments_per_gpu],
            [list(kernels) for kernels in plan.trailing_per_gpu],
        )
    assignments = [
        {
            idx: [k.with_duration(k.duration_us * scale) for k in kernels]
            for idx, kernels in per_gpu.items()
        }
        for per_gpu in plan.assignments_per_gpu
    ]
    trailing = [
        [k.with_duration(k.duration_us * scale) for k in kernels]
        for kernels in plan.trailing_per_gpu
    ]
    return assignments, trailing


@dataclass
class AdaptationEvent:
    """One replanning decision and its outcome."""

    list_length_scale: float
    replanned: bool
    regeneration_seconds: float
    iteration_us: float
    training_slowdown: float


@dataclass
class AdaptiveReplanner:
    """Periodically regenerates the RAP plan as the input distribution drifts.

    ``drift_threshold`` is the relative change in average list length that
    triggers regeneration; below it the current plan is kept (stale plans
    degrade gracefully because demand-fitted kernels merely grow or shrink
    against a fixed capacity budget).
    """

    workload: TrainingWorkload
    base_graphs: GraphSet
    drift_threshold: float = 0.15
    events: list[AdaptationEvent] = field(default_factory=list)
    _planner: RapPlanner = field(init=False)
    _plan: RapPlan = field(init=False)
    _planned_scale: float = field(init=False, default=1.0)

    def __post_init__(self) -> None:
        if self.drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        self._planner = RapPlanner(self.workload)
        self._plan = self._planner.plan(self.base_graphs)

    @property
    def current_plan(self) -> RapPlan:
        return self._plan

    def observe(self, list_length_scale: float) -> AdaptationEvent:
        """Feed one observed distribution; replan if drift is excessive.

        Returns the event describing what happened, including the simulated
        iteration under whatever plan ended up active. The *active plan's*
        kernels are evaluated against the *drifted* workload: a stale plan
        under-sizes (or over-sizes) its kernels, which shows up as exposed
        preprocessing latency or contention.
        """
        drift = abs(list_length_scale - self._planned_scale) / self._planned_scale
        replanned = drift > self.drift_threshold
        regen_s = 0.0
        drifted = drift_graph_set(self.base_graphs, list_length_scale)
        if replanned:
            start = time.perf_counter()
            self._plan = self._planner.plan(drifted)
            regen_s = time.perf_counter() - start
            self._planned_scale = list_length_scale
            report = self._planner.evaluate(self._plan)
        else:
            report = self._evaluate_stale(drifted)
        event = AdaptationEvent(
            list_length_scale=list_length_scale,
            replanned=replanned,
            regeneration_seconds=regen_s,
            iteration_us=report.iteration_us,
            training_slowdown=report.training_slowdown,
        )
        self.events.append(event)
        return event

    def _evaluate_stale(self, drifted: GraphSet) -> RapRunReport:
        """Execute the *current* plan's placement against drifted kernels.

        Keeps each kernel's stage assignment but re-costs it under the new
        distribution by scaling kernel durations with the drifted total
        work -- the first-order effect of list-length drift.
        """
        planned_total = self._plan.graph_set.standalone_latency_us(self.workload.spec)
        drifted_total = drifted.standalone_latency_us(self.workload.spec)
        scale = drifted_total / planned_total if planned_total > 0 else 1.0
        assignments, trailing = scale_plan_kernels(self._plan, scale)
        result = self.workload.simulate(
            assignments_per_gpu=assignments,
            trailing_per_gpu=trailing,
            input_comm_bytes=self._plan.input_comm_bytes,
            input_comm_transfers=max(1, self._plan.input_comm_transfers),
        )
        prep = max(self._plan.data_prep_per_gpu, key=lambda p: p.total_us)
        timeline = self._planner.interleaver.steady_state(result.iteration_time_us, prep)
        return RapRunReport(plan=self._plan, cluster_result=result, timeline=timeline)
