"""Content-addressed caching of searched plans (the planner fast path).

RAP's usability depends on re-planning being cheap: the runtime watchdog
asks for a fresh plan whenever measured exposure drifts from the
prediction, and a production deployment replans the same workload across
process restarts. This module makes the common case -- "nothing that
matters changed" -- a hash lookup instead of a full Algorithm-1 search.

A plan is cached under a SHA-256 of everything the search consumes:

- the **workload**: GPU count, batch size, GPU spec, embedding placement,
  and every training stage's (name, duration, SM/DRAM utilization) --
  capacity changes invalidate;
- the **graph set**: per-graph operator structure, parameters, consumers,
  and list-length statistics -- kernel changes invalidate;
- the **planner knobs**: mapping strategy, fusion/interleaving toggles,
  the MILP solver's limits, and the latency predictor's fingerprint --
  search-behaviour changes invalidate;
- the **code version** (:data:`PLANNER_CODE_VERSION`): bumped whenever the
  search algorithm changes, so stale artifacts from older planners are
  never resurrected.

Process memory holds each entry as a plan; a hit returns it bound to the
caller's workload and graph set, with containers of its own. JSON exists
only at the optional directory: a store writes
:func:`repro.core.serialization.plan_to_json` text there, and a fresh
process decodes an entry once on its first hit. Either way a warm hit
serializes to the bytes of the cold search that produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..dlrm.training import TrainingWorkload
from ..ioutil import advisory_lock, atomic_write_text
from ..preprocessing.graph import DENSE_CONSUMER, FeatureGraph, GraphSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner -> here)
    from ..milp.branch_and_bound import BranchAndBoundSolver
    from .planner import RapPlan

__all__ = [
    "PLANNER_CODE_VERSION",
    "PlanCacheStats",
    "PlanCache",
    "graph_structure_key",
    "graph_fingerprint",
    "graph_set_fingerprint",
    "graph_set_structure_fingerprint",
    "workload_fingerprint",
    "plan_cache_key",
    "canonical_name_maps",
    "invariant_graph_set_fingerprint",
    "invariant_workload_fingerprint",
    "invariant_plan_key",
]

#: Version tag of the planning algorithm itself. Bump on any change to the
#: search (mapping heuristic, fusion formulation, scheduler) that can alter
#: the produced plan: cached entries keyed under older versions become
#: unreachable rather than silently serving stale plans.
#: rap-planner-3: the cache key gained the latency predictor's fingerprint
#: (online calibration can change predictions without changing the
#: workload, so pre-calibration entries must not serve a calibrated
#: request).
#: rap-planner-4: the fusion MILP is solved by a root-LP gate plus one HiGHS
#: branch-and-cut call, which can return a different optimal assignment
#: (or a better one where the old search stopped on its time limit).
PLANNER_CODE_VERSION = "rap-planner-4"


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def graph_structure_key(graph: FeatureGraph) -> tuple:
    """The latency-independent structure of one feature graph.

    Captures what the fusion MILP and the mapping search *see* -- operator
    types, wiring, parameters, and the consumer -- but not the list-length
    statistics that only rescale kernel latencies. Incremental re-planning
    compares structure keys to decide how much of a previous plan survives.
    """
    return (
        graph.name,
        graph.consumer,
        tuple(
            (op.op_name, op.inputs, op.output, op._params_key())
            for op in graph.ops
        ),
    )


def graph_fingerprint(graph: FeatureGraph) -> tuple:
    """Full per-graph key: structure plus the latency-scaling statistics."""
    return graph_structure_key(graph) + (float(graph.avg_list_length),)


def _content(graph_set: GraphSet) -> tuple:
    """Everything a graph-set digest reads, as a cheaply comparable value.

    Operators are compared by identity first (``tuple`` equality), so an
    unchanged set compares in one pass over its graphs and op lists. An
    operator is a value: it is never mutated in place.
    """
    return (
        graph_set.rows,
        tuple(
            (g.name, g.consumer, g.avg_list_length, tuple(g.ops))
            for g in graph_set.graphs
        ),
    )


def _memoized_digest(graph_set: GraphSet, kind: str, payload) -> str:
    """``sha256(repr(payload(graph_set)))``, recomputed only when the set
    has changed since this digest was last taken of it."""
    content = _content(graph_set)
    hit = graph_set.digests.get(kind)
    if hit is not None and hit[0] == content:
        return hit[1]
    digest = hashlib.sha256(repr(payload(graph_set)).encode()).hexdigest()
    graph_set.digests[kind] = (content, digest)
    return digest


def graph_set_fingerprint(graph_set: GraphSet) -> str:
    """Content hash of a graph set: rows plus every graph's fingerprint.

    Memoized per graph set object: a repeated call on an unchanged set
    costs one comparison of its graphs' fields, and any change (a list
    length, a graph added or replaced, the row count) takes a new digest.
    """
    return _memoized_digest(
        graph_set,
        "content",
        lambda gs: (gs.rows, tuple(graph_fingerprint(g) for g in gs)),
    )


def graph_set_structure_fingerprint(graph_set: GraphSet) -> str:
    """Hash of every graph's :func:`graph_structure_key`, in set order.

    Latency-independent, like the keys it hashes; memoized per graph set
    object like :func:`graph_set_fingerprint`.
    """
    return _memoized_digest(
        graph_set,
        "structure",
        lambda gs: tuple(graph_structure_key(g) for g in gs),
    )


def _workload_payload(workload: TrainingWorkload, table_map: dict[str, str]) -> tuple:
    """What both workload fingerprints hash, with embedding tables renamed
    through ``table_map`` (a table it lacks keeps its name)."""
    spec = workload.spec
    placement = workload.placement
    payload = (
        workload.num_gpus,
        workload.local_batch,
        (
            spec.name,
            spec.num_sms,
            spec.warps_per_sm,
            spec.dram_bw_gbps,
            spec.mem_gb,
            spec.fp32_tflops,
            spec.nvlink_bw_gbps,
            spec.pcie_bw_gbps,
            spec.kernel_launch_us,
        ),
        tuple(sorted((table_map.get(t, t), gpu) for t, gpu in placement.table_to_gpu.items())),
        tuple(sorted(table_map.get(t, t) for t in placement.row_wise_tables)),
        tuple(
            (gpu, s.name, s.duration_us, s.utilization.sm, s.utilization.dram)
            for gpu in range(workload.num_gpus)
            for s in workload.stages_for_gpu(gpu)
        ),
    )
    if getattr(workload, "specs", None) is not None:
        # Heterogeneous fleet: the per-GPU profile sequence is identity, not
        # just the stage numbers it happens to produce. Appended only when
        # set, so every homogeneous fingerprint is unchanged.
        payload = payload + (workload.fleet_profile,)
    return payload


def workload_fingerprint(workload: TrainingWorkload) -> str:
    """Hash of everything the workload contributes to the search.

    The per-stage (duration, utilization) tuples are included directly, so
    any change to stage capacities -- recalibration, a different spec, a
    new placement -- invalidates cached plans even when the headline shape
    (GPU count x batch) is unchanged.
    """
    payload = (workload.config.name,) + _workload_payload(workload, {})
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _request_key(
    salt: tuple, workload_fp: str, graph_set_fp: str, mapping_strategy: str,
    fusion_enabled: bool, interleaving_enabled: bool, solver: "BranchAndBoundSolver",
    predictor_fingerprint: str | None,
) -> str:
    """The digest behind both plan keys: ``salt``, the code version, the
    workload and graph-set fingerprints, then the planner's knobs."""
    payload = (
        *salt,
        PLANNER_CODE_VERSION,
        workload_fp,
        graph_set_fp,
        mapping_strategy,
        fusion_enabled,
        interleaving_enabled,
        (solver.node_limit, solver.time_limit_s, solver.INTEGRALITY_TOL, solver.GAP_TOL),
        predictor_fingerprint,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def plan_cache_key(
    workload: TrainingWorkload,
    graph_set: GraphSet,
    mapping_strategy: str,
    fusion_enabled: bool,
    interleaving_enabled: bool,
    solver: "BranchAndBoundSolver",
    predictor_fingerprint: str | None = None,
) -> str:
    """The content address of one planning request.

    ``predictor_fingerprint`` identifies the latency model pricing the
    search (``None`` = the oracle). Online calibration changes predictions
    without touching the workload or graphs, so the fingerprint keeps a
    recalibrated replan from resurrecting the stale pre-drift plan.
    """
    return _request_key(
        (), workload_fingerprint(workload), graph_set_fingerprint(graph_set),
        mapping_strategy, fusion_enabled, interleaving_enabled, solver,
        predictor_fingerprint,
    )


# ----------------------------------------------------------------------
# Tenant-invariant fingerprints
#
# Two tenants submitting *isomorphic* workloads -- same operator DAGs,
# same batch shape, same placement topology, but tenant-prefixed graph,
# column, and table names -- describe the same planning problem. The
# helpers below canonically relabel every name by order of first
# appearance (graphs by graph-set order, columns by op order within that,
# embedding tables by consumer order; the replicated ``dense`` consumer is
# structural and keeps its name), so isomorphic specs produce identical
# fingerprints while anything that actually moves the search -- stage
# capacities, knobs, the calibration fingerprint -- still invalidates.
# ----------------------------------------------------------------------


def canonical_name_maps(graph_set: GraphSet) -> tuple[dict, dict, dict]:
    """Maps from real names to canonical names: (graphs, columns, consumers).

    Deterministic in graph-set order: graph ``i`` becomes ``g<i>``, columns
    become ``c<j>`` by first appearance walking each graph's ops in order
    (inputs before output), embedding-table consumers become ``t<k>`` by
    first appearance. ``DENSE_CONSUMER`` maps to itself -- whether a graph
    feeds the replicated dense stack or a sharded table changes where its
    output must land, so it is structure, not naming.
    """
    graph_map: dict[str, str] = {}
    column_map: dict[str, str] = {}
    consumer_map: dict[str, str] = {DENSE_CONSUMER: DENSE_CONSUMER}
    tables = 0
    for gi, graph in enumerate(graph_set):
        graph_map[graph.name] = f"g{gi}"
        if graph.consumer not in consumer_map:
            consumer_map[graph.consumer] = f"t{tables}"
            tables += 1
        for op in graph.ops:
            for col in op.inputs:
                column_map.setdefault(col, f"c{len(column_map)}")
            column_map.setdefault(op.output, f"c{len(column_map)}")
    return graph_map, column_map, consumer_map


def _invariant_graph_fingerprint(
    graph: FeatureGraph, column_map: dict, consumer_map: dict
) -> tuple:
    return (
        consumer_map[graph.consumer],
        tuple(
            (
                op.op_name,
                tuple(column_map[c] for c in op.inputs),
                column_map[op.output],
                op._params_key(),
            )
            for op in graph.ops
        ),
        float(graph.avg_list_length),
    )


def invariant_graph_set_fingerprint(graph_set: GraphSet) -> str:
    """Like :func:`graph_set_fingerprint` but under canonical relabeling.

    Graph identity is positional (graph ``i``'s fingerprint sits at slot
    ``i``), so graph names drop out entirely.
    """
    _, column_map, consumer_map = canonical_name_maps(graph_set)
    payload = (
        graph_set.rows,
        tuple(
            _invariant_graph_fingerprint(g, column_map, consumer_map)
            for g in graph_set
        ),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def invariant_workload_fingerprint(
    workload: TrainingWorkload, graph_set: GraphSet
) -> str:
    """Like :func:`workload_fingerprint` but with table names canonicalized.

    The embedding placement's table names are the graph consumers, so the
    same consumer map relabels them; the model config's *name* (a preset
    label tenants are free to decorate) is dropped -- every capacity-moving
    consequence of the config is already hashed through the stages.
    """
    _, _, consumer_map = canonical_name_maps(graph_set)
    payload = _workload_payload(workload, consumer_map)
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def invariant_plan_key(
    workload: TrainingWorkload,
    graph_set: GraphSet,
    mapping_strategy: str,
    fusion_enabled: bool,
    interleaving_enabled: bool,
    solver: "BranchAndBoundSolver",
    predictor_fingerprint: str | None = None,
) -> str:
    """The tenant-invariant content address of one planning request.

    Mirrors :func:`plan_cache_key` with the invariant fingerprints swapped
    in (plus a domain salt so the two key spaces can share one directory).
    ``predictor_fingerprint`` stays in the key: a tenant whose calibration
    has drifted prices kernels differently and must not inherit another
    tenant's plan.
    """
    return _request_key(
        ("tenant-invariant",),
        invariant_workload_fingerprint(workload, graph_set),
        invariant_graph_set_fingerprint(graph_set),
        mapping_strategy, fusion_enabled, interleaving_enabled, solver,
        predictor_fingerprint,
    )


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------


@dataclass
class PlanCacheStats:
    """Hit/miss accounting for one plan cache.

    ``disk_hits`` counts the subset of ``hits`` served by the persistent
    tier (a fresh process starting warm) rather than process memory.
    ``lock_contention`` counts stores that skipped the disk tier because
    another process held the advisory lock -- a distinct outcome, not a
    miss: the memory tier still serves and nothing was evicted.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_hits: int = 0
    lock_contention: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "disk_hits": self.disk_hits,
            "lock_contention": self.lock_contention,
        }


def _detached(plan: "RapPlan", workload: TrainingWorkload, graph_set: GraphSet) -> "RapPlan":
    """``plan`` bound to ``workload`` and ``graph_set``, in containers of
    its own, with its evaluation cut to what ``plan_to_json`` persists.

    Kernels and data-preparation entries are frozen values, so the copy
    shares them; the assignment, trailing and placement containers it
    gets are new, so editing them touches neither ``plan`` nor another
    copy. A copy of a searched plan has the shape its JSON decodes to.
    """
    evaluation = plan.mapping_eval
    mapping = evaluation.mapping
    return dataclasses.replace(
        plan,
        workload=workload,
        graph_set=graph_set,
        mapping_eval=dataclasses.replace(
            evaluation,
            mapping=dataclasses.replace(
                mapping,
                placements={k: list(v) for k, v in mapping.placements.items()},
            ),
            schedules=[],
            comm_us=float(evaluation.comm_us),
            exposed_us_per_gpu=[float(v) for v in evaluation.exposed_per_gpu],
        ),
        assignments_per_gpu=[
            {stage: list(kernels) for stage, kernels in per_gpu.items()}
            for per_gpu in plan.assignments_per_gpu
        ],
        trailing_per_gpu=[list(kernels) for kernels in plan.trailing_per_gpu],
        data_prep_per_gpu=list(plan.data_prep_per_gpu),
    )


class PlanCache:
    """Two-tier (memory + optional directory) store of searched plans.

    The memory tier holds plans; JSON exists only at the directory, which
    holds each entry's :func:`~repro.core.serialization.plan_to_json` text.
    A hit is the stored plan bound to the caller's workload and graph set,
    so re-serializing it reproduces the cold search's bytes.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: dict[str, RapPlan] = {}
        self.stats = PlanCacheStats()
        self._metrics = None
        # Reentrant: a service admission thread holding the cache lock may
        # re-enter through the planner's own get/put during a cold search.
        self._tier_lock = threading.RLock()

    def bind_metrics(self, registry, cache: str = "plan") -> None:
        """Mirror hit/miss/store accounting into a telemetry registry."""
        self._metrics = registry
        self._metric_label = cache

    def _count(self, outcome: str, tier: str | None = None) -> None:
        if self._metrics is None:
            return
        labels = {"cache": self._metric_label}
        if tier is not None:
            labels["tier"] = tier
        self._metrics.counter(
            f"rap_cache_{outcome}_total",
            help=f"Cache {outcome} by cache and tier",
            labels=labels,
        ).inc()

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.plan.json"

    def _load(
        self, key: str, workload: TrainingWorkload, graph_set: GraphSet
    ) -> "tuple[RapPlan, str] | None":
        """``(plan, tier)`` for ``key`` from memory, else from disk; no stats.

        A disk entry is decoded once and then served from memory. A torn or
        stale artifact is a miss, never an error: the planner falls through
        to a fresh search and overwrites it.
        """
        from .serialization import PlanLoadError, plan_from_json

        with self._tier_lock:
            stored = self._memory.get(key)
            if stored is not None:
                return _detached(stored, workload, graph_set), "memory"
            if self.directory is None:
                return None
            try:
                text = self._path(key).read_text()
                plan = plan_from_json(text, workload, graph_set)
            except (OSError, PlanLoadError):
                return None
            self._memory[key] = plan
            return _detached(plan, workload, graph_set), "disk"

    def get(
        self, key: str, workload: TrainingWorkload, graph_set: GraphSet
    ) -> "RapPlan | None":
        with self._tier_lock:
            found = self._load(key, workload, graph_set)
            if found is None:
                self.stats.misses += 1
                self._count("misses")
                return None
            plan, tier = found
            self.stats.hits += 1
            if tier == "disk":
                self.stats.disk_hits += 1
            self._count("hits", tier)
            return plan

    def put(self, key: str, plan: "RapPlan") -> None:
        from .serialization import plan_to_json

        stored = _detached(plan, plan.workload, plan.graph_set)
        text = plan_to_json(plan) if self.directory is not None else None
        with self._tier_lock:
            self._memory[key] = stored
            self.stats.stores += 1
            self._count("stores")
            if text is not None:
                # Atomic write under an advisory lock: concurrent planners
                # never interleave bytes, and a held lock degrades to
                # skipping the disk tier (the memory tier still serves; a
                # reader sees either the old complete entry or the new one).
                try:
                    with advisory_lock(self.directory / ".lock") as acquired:
                        if acquired:
                            atomic_write_text(self._path(key), text)
                        else:
                            self.stats.lock_contention += 1
                            self._count("lock_contention", "disk")
                except OSError:
                    pass  # best-effort persistence; the memory tier still serves

    def __contains__(self, key: str) -> bool:
        """Whether either tier holds an entry for ``key``; reads no entry."""
        with self._tier_lock:
            return key in self._memory or (
                self.directory is not None and self._path(key).exists()
            )
