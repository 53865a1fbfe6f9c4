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
  here). Between regenerations the stale plan is scored with
  :meth:`~repro.core.planner.RapPlanner.evaluate_scaled`.

:func:`scale_plan_kernels` lives in :mod:`repro.core.planner` and is
re-exported here: it is the one function that drifts a frozen placement,
shared by this loop, shadow scoring and the fault-tolerant runtime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..dlrm.training import TrainingWorkload
from ..preprocessing.graph import FeatureGraph, GraphSet
from .planner import RapPlan, RapPlanner, scale_plan_kernels

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
            # The stale plan keeps its placement; each kernel's work tracks
            # the drifted total -- the first-order effect of list-length drift.
            planned = self._plan.graph_set.standalone_latency_us(self.workload.spec)
            live = drifted.standalone_latency_us(self.workload.spec)
            report = self._planner.evaluate_scaled(
                self._plan, live / planned if planned > 0 else 1.0
            )
        event = AdaptationEvent(
            list_length_scale=list_length_scale,
            replanned=replanned,
            regeneration_seconds=regen_s,
            iteration_us=report.iteration_us,
            training_slowdown=report.training_slowdown,
        )
        self.events.append(event)
        return event
