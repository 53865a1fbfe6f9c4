"""The end-to-end RAP planner (§4, Fig. 4).

Ties the whole pipeline together:

- **Offline**: train the preprocessing latency predictor from sampled
  kernel measurements (:func:`repro.core.latency_predictor.train_default_predictor`),
  or run with the oracle cost model (true simulated latencies) when
  isolating scheduling quality from predictor error.
- **Online**: profile the training workload's overlapping capacity, map
  the preprocessing graphs across GPUs, fuse horizontally per GPU, build
  the Algorithm-1 co-running schedule, and assemble the executable plan.

The planner also exposes the paper's ablations: mapping strategy
(``"rap"`` / ``"data_parallel"`` / ``"data_locality"``), horizontal fusion
on/off, and inter-batch interleaving on/off -- the knobs behind Fig. 10
and Fig. 12.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..dlrm.training import TrainingWorkload
from ..gpusim.cluster import ClusterIterationResult
from ..gpusim.kernel import KernelDesc
from ..milp.branch_and_bound import BranchAndBoundSolver
from ..preprocessing.executor import DataPreparation
from ..preprocessing.graph import GraphSet
from .capacity import OverlappingCapacityEstimator
from .cost_model import CoRunningCostModel
from .fusion import HorizontalFusionPass
from .interleaving import InterbatchInterleaver, SteadyStateTimeline
from .latency_predictor import PreprocessingLatencyPredictor
from .mapping import (
    GraphMapping,
    MappingEvaluation,
    RapMapper,
    map_data_locality,
    map_data_parallel,
    rebuild_comm,
)
from .plan_cache import (
    PlanCache,
    graph_set_fingerprint,
    graph_set_structure_fingerprint,
    graph_structure_key,
    plan_cache_key,
)
from .scheduler import ResourceAwareScheduler

__all__ = ["RapPlan", "RapRunReport", "RapPlanner", "PlannerStats", "scale_plan_kernels"]

MAPPING_STRATEGIES = ("rap", "data_parallel", "data_locality")

#: Entries in :meth:`RapPlanner.replan`'s memo. On the fault-injected
#: watchdog workload every repeated replan input recurs within 7 distinct
#: inputs of its last use (DESIGN §9), so 8 entries catch every repeat.
REPLAN_MEMO_SIZE = 8


@dataclass
class RapPlan:
    """A fully searched co-running plan, ready to execute or simulate."""

    workload: TrainingWorkload
    graph_set: GraphSet
    mapping_eval: MappingEvaluation
    assignments_per_gpu: list[dict[int, list[KernelDesc]]]
    trailing_per_gpu: list[list[KernelDesc]]
    data_prep_per_gpu: list[DataPreparation]
    fusion_enabled: bool
    interleaving_enabled: bool

    @property
    def mapping(self) -> GraphMapping:
        return self.mapping_eval.mapping

    @property
    def input_comm_bytes(self) -> float:
        return self.mapping.input_comm_bytes

    @property
    def input_comm_transfers(self) -> int:
        return self.mapping.input_comm_transfers

    @property
    def predicted_exposed_us(self) -> float:
        return self.mapping_eval.objective_us

    def placed_kernels(self) -> list[KernelDesc]:
        """Every GPU's staged kernels in stage order, then every GPU's
        trailing kernels."""
        staged = [
            k
            for per_gpu in self.assignments_per_gpu
            for stage in sorted(per_gpu)
            for k in per_gpu[stage]
        ]
        return staged + [k for trailing in self.trailing_per_gpu for k in trailing]

    def num_kernels_per_gpu(self) -> list[int]:
        return [
            sum(len(v) for v in a.values()) + len(t)
            for a, t in zip(self.assignments_per_gpu, self.trailing_per_gpu)
        ]


@dataclass
class RapRunReport:
    """Measured (simulated) outcome of executing a plan for one iteration."""

    plan: RapPlan
    cluster_result: ClusterIterationResult
    timeline: SteadyStateTimeline

    @property
    def iteration_us(self) -> float:
        return self.timeline.iteration_us

    @property
    def throughput(self) -> float:
        return self.plan.workload.throughput_from_iteration(self.iteration_us)

    @property
    def exposed_preprocessing_us(self) -> float:
        return self.cluster_result.max_exposed_preprocessing_us

    @property
    def training_slowdown(self) -> float:
        ideal = self.plan.workload.ideal_iteration_us()
        return self.iteration_us / ideal if ideal > 0 else 1.0


def scale_plan_kernels(
    plan: RapPlan, scale: float, drift_factors: dict[str, float] | None = None
) -> tuple[list[dict[int, list[KernelDesc]]], list[list[KernelDesc]]]:
    """A plan's placement under drift: the one run-time placement function.

    The placement (which stage hosts which kernel) is frozen; each kernel
    is drifted by the uniform ``scale`` and then by its op type's
    ``drift_factors`` entry (:meth:`KernelDesc.drifted`), which is what
    both the runtime and shadow scoring run. Returns fresh containers
    ``(assignments_per_gpu, trailing_per_gpu)`` that recovery may rewrite,
    ready for :meth:`repro.dlrm.training.TrainingWorkload.simulate`.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    factors = drift_factors or {}

    def drift(kernels: list[KernelDesc]) -> list[KernelDesc]:
        return [k.drifted(scale).drifted(factors.get(k.tag, 1.0)) for k in kernels]

    assignments = [
        {stage: drift(kernels) for stage, kernels in per_gpu.items()}
        for per_gpu in plan.assignments_per_gpu
    ]
    return assignments, [drift(kernels) for kernels in plan.trailing_per_gpu]


@dataclass
class PlannerStats:
    """What the planner fast path did across this planner's lifetime."""

    plans: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    incremental_replans: int = 0
    full_replans: int = 0
    memo_hits: int = 0


class RapPlanner:
    """Searches and evaluates RAP co-running plans for a training workload.

    The fast-path knobs:

    - ``cache``: a :class:`repro.core.plan_cache.PlanCache`; planning
      requests whose content hash matches a cached entry return the stored
      plan, bound to this planner's workload and the request's graph set,
      without searching (it serializes to the cold search's bytes). It is the
      planner's only cache: repeated fusion MILPs within a search are
      absorbed by the fusion pass's structure memo, so each planner owns
      a plain :class:`~repro.milp.branch_and_bound.BranchAndBoundSolver`.
    - ``parallel_search`` is accepted and ignored, because the benchmark's
      planner still passes it: candidate moves are always priced
      in-process (DESIGN §9 says why).
    - :meth:`replan` re-plans incrementally when only latencies drifted or
      at most one graph changed structurally, warm-starting from the
      previous plan's mapping instead of re-running the full search. A
      replan that repeats one of the last :data:`REPLAN_MEMO_SIZE` replan
      inputs returns that replan's plan object without searching.
    """

    def __init__(
        self,
        workload: TrainingWorkload,
        predictor: PreprocessingLatencyPredictor | None = None,
        mapping_strategy: str = "rap",
        fusion_enabled: bool = True,
        interleaving_enabled: bool = True,
        cache: PlanCache | None = None,
        parallel_search: bool = False,
    ) -> None:
        if mapping_strategy not in MAPPING_STRATEGIES:
            raise ValueError(
                f"mapping_strategy must be one of {MAPPING_STRATEGIES}, got {mapping_strategy!r}"
            )
        self.workload = workload
        self.mapping_strategy = mapping_strategy
        self.fusion_enabled = fusion_enabled
        self.interleaving_enabled = interleaving_enabled
        self.cache = cache
        self.stats = PlannerStats()
        self.solver = BranchAndBoundSolver()
        self.estimator = OverlappingCapacityEstimator(workload.spec)
        self.cost_model = CoRunningCostModel(self.estimator, predictor)
        self.fusion = HorizontalFusionPass(
            workload.spec, enabled=fusion_enabled, solver=self.solver
        )
        self.scheduler = ResourceAwareScheduler(self.cost_model)
        self.mapper = RapMapper(workload, self.cost_model, self.fusion, self.scheduler)
        self.interleaver = InterbatchInterleaver(enabled=interleaving_enabled)
        self._replan_memo: OrderedDict[tuple, RapPlan] = OrderedDict()

    def set_predictor(self, predictor) -> None:
        """Swap the latency predictor pricing the search.

        The mapper and scheduler read latencies through the one shared
        :class:`CoRunningCostModel`, so replacing its predictor re-prices
        every future evaluation in one move. The fusion pass lowers and
        fuses from kernel configuration alone, so its memos stay valid.
        The online calibration loop uses this to inject a
        :class:`repro.telemetry.CalibratedPredictor` when the drift
        detector fires; the cache key tracks the predictor's fingerprint,
        so calibrated plans never collide with stale ones. The replan memo
        is cleared outright.
        """
        self.cost_model.predictor = predictor
        self._replan_memo.clear()

    def _predictor_fingerprint(self) -> str | None:
        """Cache-key identity of the active latency model (None = oracle)."""
        predictor = self.cost_model.predictor
        if predictor is None or not getattr(predictor, "is_fitted", False):
            return None
        fingerprint = getattr(predictor, "fingerprint", None)
        if callable(fingerprint):
            return fingerprint()
        return type(predictor).__name__

    # ------------------------------------------------------------------

    def _cache_key(self, graph_set: GraphSet) -> str:
        return plan_cache_key(
            self.workload,
            graph_set,
            self.mapping_strategy,
            self.fusion_enabled,
            self.interleaving_enabled,
            self.solver,
            predictor_fingerprint=self._predictor_fingerprint(),
        )

    def plan(self, graph_set: GraphSet) -> RapPlan:
        """Search the mapping + fusion + schedule for one workload.

        With a cache attached, a content-hash hit returns the stored plan
        without searching; a miss searches and stores the result.
        """
        return self._cached(graph_set, lambda: self._search(graph_set))

    def _cached(self, graph_set: GraphSet, search) -> RapPlan:
        """Count one plan; return the cache's plan for ``graph_set`` on a
        hit, else ``search()``, stored when a cache is attached."""
        self.stats.plans += 1
        if self.cache is None:
            return search()
        key = self._cache_key(graph_set)
        hit = self.cache.get(key, self.workload, graph_set)
        if hit is not None:
            self.stats.cache_hits += 1
            return hit
        self.stats.cache_misses += 1
        plan = search()
        self.cache.put(key, plan)
        return plan

    def _search(
        self, graph_set: GraphSet, initial_mapping: GraphMapping | None = None,
        move_budget: int | None = None,
    ) -> RapPlan:
        if initial_mapping is not None:
            self.stats.incremental_replans += 1
        if self.fusion.scope(graph_set):
            self.scheduler.clear_fits()
        if self.mapping_strategy == "rap":
            evaluation = self.mapper.optimize(
                graph_set, initial_mapping=initial_mapping, budget=move_budget
            )
        elif self.mapping_strategy == "data_parallel":
            evaluation = self.mapper.evaluate(graph_set, map_data_parallel(graph_set, self.workload))
        else:
            evaluation = self.mapper.evaluate(graph_set, map_data_locality(graph_set, self.workload))

        assignments = [dict(s.assignments) for s in evaluation.schedules]
        trailing = [list(s.trailing) for s in evaluation.schedules]
        prep = []
        for gpu in range(self.workload.num_gpus):
            entries = evaluation.mapping.graphs_on_gpu(graph_set, gpu)
            if entries:
                graphs = [g for g, _ in entries]
                rows = max(r for _, r in entries)
                prep.append(self.fusion.data_preparation(graphs, rows))
            else:
                prep.append(DataPreparation(0.0, 0.0, 0.0))
        return RapPlan(
            workload=self.workload,
            graph_set=graph_set,
            mapping_eval=evaluation,
            assignments_per_gpu=assignments,
            trailing_per_gpu=trailing,
            data_prep_per_gpu=prep,
            fusion_enabled=self.fusion_enabled,
            interleaving_enabled=self.interleaving_enabled,
        )

    # ------------------------------------------------------------------
    # Incremental re-planning
    # ------------------------------------------------------------------

    def replan(
        self,
        graph_set: GraphSet,
        previous: RapPlan | None = None,
        initial_mapping: GraphMapping | None = None,
    ) -> RapPlan:
        """Re-plan for a (possibly changed) graph set, incrementally if safe.

        The plan cache, when attached, is consulted first. Then the replan
        memo: a request whose inputs equal one of the last
        :data:`REPLAN_MEMO_SIZE` requests returns that request's plan object
        unsearched. Its key is exactly what the warm-started search reads
        -- the graph set's content, the structure of ``previous``'s graph
        set, ``previous``'s placements and the predictor fingerprint --
        while the workload, knobs and solver are fixed per planner.
        Otherwise, when ``previous`` exists and the new graph
        set keeps the same feature names with at most one graph changed
        *structurally* (uniform latency drift changes no structure), the
        previous mapping seeds the hill climb under a reduced move budget
        and the fusion pass replays its memoized assignments -- only the
        sharding/scheduling and mapping refinement re-run. Anything bigger
        falls back to the full Algorithm-1 search.

        ``initial_mapping`` forces the warm-started incremental path with an
        explicitly constructed seed mapping. The elastic runtime uses this
        after a membership change: ``previous`` was searched for a larger
        fleet, so its placements cannot be reused verbatim, but its
        surviving-GPU slice (re-indexed into the survivor space) is still a
        far better starting point than a cold search.
        """
        if self.mapping_strategy != "rap" or (previous is None and initial_mapping is None):
            return self.plan(graph_set)
        if (
            initial_mapping is None
            and previous.workload.num_gpus != self.workload.num_gpus
        ):
            # A plan from a different fleet shape cannot warm-start directly;
            # callers must re-slice it into an explicit initial_mapping.
            return self.plan(graph_set)

        budget = max(self.workload.num_gpus * 2, len(graph_set.graphs) // 2)
        if initial_mapping is not None:
            return self._cached(
                graph_set,
                lambda: self._search(
                    graph_set, initial_mapping=initial_mapping, move_budget=budget
                ),
            )
        return self._cached(
            graph_set, lambda: self._memoized_replan(graph_set, previous, budget)
        )

    def _memoized_replan(self, graph_set: GraphSet, previous: RapPlan, budget: int) -> RapPlan:
        key = (
            graph_set_fingerprint(graph_set),
            graph_set_structure_fingerprint(previous.graph_set),
            tuple((name, tuple(p)) for name, p in previous.mapping.placements.items()),
            self._predictor_fingerprint(),
        )
        plan = self._replan_memo.get(key)
        if plan is not None:
            self.stats.memo_hits += 1
            self._replan_memo.move_to_end(key)
            return plan
        if self._incremental_eligible(graph_set, previous):
            initial = self._warm_mapping(graph_set, previous)
            plan = self._search(graph_set, initial_mapping=initial, move_budget=budget)
        else:
            self.stats.full_replans += 1
            plan = self._search(graph_set)
        self._replan_memo[key] = plan
        if len(self._replan_memo) > REPLAN_MEMO_SIZE:
            self._replan_memo.popitem(last=False)
        return plan

    def _incremental_eligible(self, graph_set: GraphSet, previous: RapPlan) -> bool:
        old = {g.name: graph_structure_key(g) for g in previous.graph_set}
        new = {g.name: graph_structure_key(g) for g in graph_set}
        if set(old) != set(new):
            return False  # features appeared or vanished: full search
        changed = sum(1 for name in new if new[name] != old[name])
        return changed <= 1

    def _warm_mapping(self, graph_set: GraphSet, previous: RapPlan) -> GraphMapping:
        """The previous plan's placements, re-priced for the new graph set."""
        prev = previous.mapping
        mapping = GraphMapping(
            strategy="rap",
            num_gpus=self.workload.num_gpus,
            placements={k: list(v) for k, v in prev.placements.items()},
        )
        # Defensive: any graph the previous mapping does not cover falls
        # back to its data-locality placement.
        fallback = map_data_locality(graph_set, self.workload)
        for graph in graph_set:
            if graph.name not in mapping.placements:
                mapping.placements[graph.name] = list(fallback.placements[graph.name])
        rebuild_comm(mapping, graph_set, self.workload)
        return mapping

    # ------------------------------------------------------------------

    def evaluate(self, plan: RapPlan) -> RapRunReport:
        """Simulate one steady-state iteration of the plan on the cluster."""
        return self._report(plan, plan.assignments_per_gpu, plan.trailing_per_gpu)

    def evaluate_scaled(
        self,
        plan: RapPlan,
        scale: float = 1.0,
        drift_factors: dict[str, float] | None = None,
    ) -> RapRunReport:
        """Shadow-mode evaluation: simulate ``plan`` under a drifted regime.

        Replays the plan's placement through :func:`scale_plan_kernels`, the
        function the runtime runs each drifted iteration through, so a
        scored plan is priced exactly as the live runtime would run it --
        without mutating the plan or recording calibration samples. With
        ``scale == 1`` and no factors this is exactly :meth:`evaluate`. The
        shadow promotion loop (DESIGN.md §15) uses this to score the live
        plan and a candidate like-for-like over a replayed window of recent
        iteration conditions.
        """
        assignments, trailing = scale_plan_kernels(plan, scale, drift_factors)
        return self._report(plan, assignments, trailing)

    def _report(self, plan: RapPlan, assignments, trailing) -> RapRunReport:
        result = self.workload.simulate(
            assignments_per_gpu=assignments,
            trailing_per_gpu=trailing,
            input_comm_bytes=plan.input_comm_bytes,
            input_comm_transfers=max(1, plan.input_comm_transfers),
        )
        prep = max(plan.data_prep_per_gpu, key=lambda p: p.total_us, default=DataPreparation(0, 0, 0))
        timeline = self.interleaver.steady_state(result.iteration_time_us, prep)
        return RapRunReport(plan=plan, cluster_result=result, timeline=timeline)

    def plan_and_evaluate(self, graph_set: GraphSet) -> RapRunReport:
        return self.evaluate(self.plan(graph_set))
