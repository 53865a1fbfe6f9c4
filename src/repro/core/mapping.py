"""Preprocessing-graph mapping across GPUs (§3 Design Space 1, §7.2).

Three strategies, matching the paper's Fig. 12 study:

- **Data-parallel (DP) mapping**: every GPU preprocesses its own batch
  slice of every feature. Perfectly balanced, but sparse outputs must be
  redistributed to the GPU owning the consuming embedding table --
  input communication on the critical path.
- **Data-locality (DL) mapping**: each sparse feature's graph runs, for
  the whole global batch, on the GPU owning its table. Zero input
  communication, but the workload is as imbalanced as the table placement.
- **RAP joint mapping**: start from DL (communication-optimal), evaluate
  each GPU's intra-GPU co-running schedule with the cost model, and
  iteratively move whole graphs from the most expensive GPU to the
  cheapest when the balance gain outweighs the added communication.

Dense-consumer graphs are always processed locally per batch slice (each
GPU's MLP replica needs exactly its own slice), so only sparse-consumer
graphs are movable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dlrm.training import TrainingWorkload
from ..preprocessing.graph import DENSE_CONSUMER, FeatureGraph, GraphSet
from .cost_model import CoRunningCostModel
from .fusion import HorizontalFusionPass
from .scheduler import CoRunSchedule, ResourceAwareScheduler

__all__ = [
    "GraphMapping",
    "MappingEvaluation",
    "map_data_parallel",
    "map_data_locality",
    "RapMapper",
    "rebuild_comm",
]


@dataclass
class GraphMapping:
    """Where each feature graph executes, and at what row count.

    ``placements[graph_name]`` is a list of ``(gpu, rows)`` pairs; most
    graphs run on one GPU, duplicated graphs (row-wise tables, dense
    slices) run on several.
    """

    strategy: str
    num_gpus: int
    placements: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    input_comm_bytes: float = 0.0
    input_comm_transfers: int = 0

    def graphs_on_gpu(self, graph_set: GraphSet, gpu: int) -> list[tuple[FeatureGraph, int]]:
        out: list[tuple[FeatureGraph, int]] = []
        for graph in graph_set:
            for g, rows in self.placements.get(graph.name, ()):
                if g == gpu:
                    out.append((graph, rows))
        return out

    def gpu_of(self, graph_name: str) -> list[int]:
        return [g for g, _ in self.placements.get(graph_name, ())]

    def work_us_per_gpu(self, graph_set: GraphSet, spec) -> list[float]:
        """Unfused standalone preprocessing latency mapped to each GPU."""
        loads = [0.0] * self.num_gpus
        for graph in graph_set:
            for g, rows in self.placements.get(graph.name, ()):
                loads[g] += graph.standalone_latency_us(rows, spec)
        return loads


def _owner_gpu(graph: FeatureGraph, workload: TrainingWorkload) -> list[int]:
    """GPUs consuming the graph's output (table owner, or all for row-wise)."""
    placement = workload.placement
    if placement.is_placed(graph.consumer):
        return placement.gpus_for_table(graph.consumer)
    # Consumer table unknown to the model (defensive): treat GPU 0 as owner.
    return [0]


def map_data_parallel(graph_set: GraphSet, workload: TrainingWorkload) -> GraphMapping:
    """DP mapping: slice-by-slice everywhere, pay output redistribution."""
    n = workload.num_gpus
    local = workload.local_batch
    mapping = GraphMapping(strategy="data_parallel", num_gpus=n)
    comm = 0.0
    transfers = 0
    for graph in graph_set:
        mapping.placements[graph.name] = [(g, local) for g in range(n)]
        if graph.consumer != DENSE_CONSUMER and n > 1:
            # Each slice's output moves to the owner unless produced there;
            # every feature is its own collective exchange.
            global_bytes = graph.output_nbytes(local * n)
            owners = _owner_gpu(graph, workload)
            transfers += 1
            if len(owners) == 1:
                comm += global_bytes * (n - 1) / n
            # Row-wise consumers need the ids everywhere; under DP each GPU
            # holds only its slice, so all slices are broadcast.
            else:
                comm += global_bytes * (n - 1)
    mapping.input_comm_bytes = comm
    mapping.input_comm_transfers = transfers
    return mapping


def map_data_locality(graph_set: GraphSet, workload: TrainingWorkload) -> GraphMapping:
    """DL mapping: produce every output on the GPU(s) that consume it."""
    n = workload.num_gpus
    local = workload.local_batch
    global_batch = workload.global_batch
    mapping = GraphMapping(strategy="data_locality", num_gpus=n)
    for graph in graph_set:
        if graph.consumer == DENSE_CONSUMER:
            mapping.placements[graph.name] = [(g, local) for g in range(n)]
        else:
            owners = _owner_gpu(graph, workload)
            mapping.placements[graph.name] = [(g, global_batch) for g in owners]
    mapping.input_comm_bytes = 0.0
    return mapping


def rebuild_comm(
    mapping: GraphMapping, graph_set: GraphSet, workload: TrainingWorkload
) -> None:
    """Recompute a mapping's input-communication totals from its placements.

    Used when placements are reused against a *changed* graph set (an
    incremental replan after drift): output sizes depend on the live
    list-length distribution, so the totals accumulated move-by-move during
    the original search are stale. Mirrors the move-delta accounting: a
    single-placement sparse graph produced away from its consumer pays one
    transfer of its whole-batch output.
    """
    comm = 0.0
    transfers = 0
    global_batch = workload.global_batch
    for graph in graph_set:
        if graph.consumer == DENSE_CONSUMER:
            continue
        placed = mapping.placements.get(graph.name, [])
        if len(placed) != 1:
            continue  # duplicated (row-wise) graphs run on every consumer
        if placed[0][0] not in _owner_gpu(graph, workload):
            comm += graph.output_nbytes(global_batch)
            transfers += 1
    mapping.input_comm_bytes = comm
    mapping.input_comm_transfers = transfers


@dataclass
class MappingEvaluation:
    """Cost-model view of one candidate mapping."""

    mapping: GraphMapping
    schedules: list[CoRunSchedule]
    comm_us: float
    #: Set only when the evaluation was rebuilt from a serialized plan (the
    #: schedules themselves are not persisted); live evaluations derive the
    #: exposure from their schedules.
    exposed_us_per_gpu: list[float] | None = None

    @property
    def exposed_per_gpu(self) -> list[float]:
        if self.exposed_us_per_gpu is not None:
            return list(self.exposed_us_per_gpu)
        return [s.exposed_us for s in self.schedules]

    @property
    def objective_us(self) -> float:
        """Iteration overhead: slowest GPU's exposure plus input comm."""
        return max(self.exposed_per_gpu, default=0.0) + self.comm_us

    @property
    def objective_key(self) -> tuple[float, float]:
        """Lexicographic objective: (max exposure + comm, total exposure).

        The secondary term lets the hill climber make progress when several
        GPUs tie at the maximum -- a single move then reduces total load
        even though the max is momentarily unchanged.
        """
        return (self.objective_us, sum(self.exposed_per_gpu) + self.comm_us)


class RapMapper:
    """The §7.2 joint mapping + scheduling heuristic."""

    def __init__(
        self,
        workload: TrainingWorkload,
        cost_model: CoRunningCostModel,
        fusion: HorizontalFusionPass,
        scheduler: ResourceAwareScheduler,
    ) -> None:
        self.workload = workload
        self.cost_model = cost_model
        self.fusion = fusion
        self.scheduler = scheduler

    # ------------------------------------------------------------------

    def evaluate(self, graph_set: GraphSet, mapping: GraphMapping) -> MappingEvaluation:
        """Schedule each GPU's graphs and price the mapping."""
        schedules: list[CoRunSchedule] = []
        for gpu in range(self.workload.num_gpus):
            schedules.append(self._schedule_gpu(graph_set, mapping, gpu))
        comm_us = self.workload.cluster.interconnect.redistribution_us(
            mapping.input_comm_bytes,
            self.workload.num_gpus,
            num_transfers=max(1, mapping.input_comm_transfers),
        )
        return MappingEvaluation(mapping=mapping, schedules=schedules, comm_us=comm_us)

    def _schedule_gpu(self, graph_set: GraphSet, mapping: GraphMapping, gpu: int) -> CoRunSchedule:
        entries = mapping.graphs_on_gpu(graph_set, gpu)
        # Fusion operates per row-count group (kernels of different row
        # counts of the same op type still fuse; the instance does not care).
        stages = self.workload.stages_for_gpu(gpu)
        if not entries:
            return self.scheduler.schedule(stages, [])
        kernels = []
        by_rows: dict[int, list[FeatureGraph]] = {}
        for graph, rows in entries:
            by_rows.setdefault(rows, []).append(graph)
        for rows, graphs in sorted(by_rows.items()):
            plan = self.fusion.run(graphs, rows)
            kernels.extend(plan.kernels)
        return self.scheduler.schedule(stages, kernels)

    # ------------------------------------------------------------------

    def optimize(
        self,
        graph_set: GraphSet,
        patience: int = 6,
        initial_mapping: GraphMapping | None = None,
        budget: int | None = None,
    ) -> MappingEvaluation:
        """Run the four-step heuristic of §7.2.

        Step 1 initializes from data locality; steps 2-4 iterate: evaluate
        via the intra-GPU schedule, move one graph from the most expensive
        GPU to the cheapest, and repeat. Individual moves may transiently
        worsen the objective (rebalancing two overloaded GPUs requires one
        move each, and the first move alone adds communication without
        lowering the max), so the walk continues for up to ``patience``
        non-improving rounds and the best mapping seen is returned --
        the "weigh the benefits" acceptance of the paper applied globally
        rather than per move.

        ``initial_mapping`` warm-starts the walk from a previous plan's
        placements instead of data locality (incremental re-planning), and
        ``budget`` overrides the move budget -- a warm start near the
        optimum needs far fewer moves than a cold search.
        """
        n = self.workload.num_gpus
        if initial_mapping is not None:
            mapping = initial_mapping
        else:
            mapping = map_data_locality(graph_set, self.workload)
        current = self.evaluate(graph_set, mapping)
        best = current
        if n == 1:
            best.mapping.strategy = "rap"
            return best
        if budget is None:
            budget = 4 * len(graph_set.graphs)
        global_batch = self.workload.global_batch
        stale = 0
        for _ in range(budget):
            exposed = current.exposed_per_gpu
            src = max(range(n), key=lambda g: exposed[g])
            dst = min(range(n), key=lambda g: exposed[g])
            if src == dst or exposed[src] <= 1e-9:
                break
            candidates = list(
                self._candidate_moves(graph_set, current.mapping, src, dst, global_batch)
            )
            if not candidates:
                break
            evaluations = [self.evaluate(graph_set, c) for c in candidates]
            current = min(evaluations, key=lambda e: e.objective_key)
            if current.objective_key < best.objective_key:
                best = current
                stale = 0
            else:
                stale += 1
                if stale >= patience:
                    break
        best.mapping.strategy = "rap"
        return best

    def _candidate_moves(
        self,
        graph_set: GraphSet,
        mapping: GraphMapping,
        src: int,
        dst: int,
        global_batch: int,
        max_candidates: int = 4,
    ):
        """Yield mappings moving one of ``src``'s largest graphs to ``dst``.

        Only single-owner sparse graphs are movable; dense slices are
        pinned and duplicated row-wise graphs already run everywhere.
        Candidates are ordered largest-first: the balance gain of a move is
        roughly the moved graph's standalone latency, so big graphs are
        tried before small ones.
        """
        movable: list[FeatureGraph] = []
        for graph in graph_set:
            if graph.consumer == DENSE_CONSUMER:
                continue
            placed = mapping.placements.get(graph.name, [])
            if len(placed) == 1 and placed[0][0] == src:
                movable.append(graph)
        movable.sort(
            key=lambda g: sum(k.duration_us for k in self.fusion.lower(g, global_batch)),
            reverse=True,
        )
        for chosen in movable[:max_candidates]:
            new_mapping = GraphMapping(
                strategy="rap",
                num_gpus=mapping.num_gpus,
                placements={k: list(v) for k, v in mapping.placements.items()},
                input_comm_bytes=mapping.input_comm_bytes,
                input_comm_transfers=mapping.input_comm_transfers,
            )
            new_mapping.placements[chosen.name] = [(dst, global_batch)]
            owners = _owner_gpu(chosen, self.workload)
            was_local = mapping.placements[chosen.name][0][0] in owners
            now_local = dst in owners
            delta = 0.0
            if was_local and not now_local:
                delta = chosen.output_nbytes(global_batch)
                new_mapping.input_comm_transfers = mapping.input_comm_transfers + 1
            elif not was_local and now_local:
                delta = -chosen.output_nbytes(global_batch)
                new_mapping.input_comm_transfers = max(0, mapping.input_comm_transfers - 1)
            new_mapping.input_comm_bytes = max(0.0, mapping.input_comm_bytes + delta)
            yield new_mapping
