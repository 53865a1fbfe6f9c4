"""Resource-aware horizontal kernel fusion (§6).

Bridges the preprocessing-graph world and the MILP world: a set of feature
graphs assigned to one GPU is lowered to a :class:`FusionInstance`
(operator types + dependency edges), solved for the optimal horizontal
fusion plan, and the resulting fusion groups are materialized as fused
:class:`KernelDesc` objects in time-step order -- the ``Fused_Kernels``
queue consumed by Algorithm 1.

Also provides the resource-aware sharding of §6.2:
:func:`fit_kernel_to_leftover` reduces a fused kernel's degree, and
:func:`shard_to_fit_demand` splits a kernel into equal pieces whose
individual resource demand fits a training stage's leftover, avoiding
contention entirely. The scheduler commits the prefix of those pieces that
fits a stage's remaining capacity and pushes the rest back onto the queue:
that is Algorithm 1's shard step (lines 21-26).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..gpusim.kernel import KernelDesc, fuse_kernels, new_kernel
from ..gpusim.resources import GpuSpec, ResourceVector, A100_SPEC, new_vector
from ..milp.branch_and_bound import BranchAndBoundSolver
from ..milp.fusion_problem import FusionAssignment, FusionInstance, solve_fusion
from ..preprocessing.executor import (
    DataPreparation,
    data_preparation_from_terms,
    data_preparation_terms,
)
from ..preprocessing.graph import FeatureGraph, GraphSet
from ..preprocessing.ops import PreprocessingOp

__all__ = [
    "FusionPlan",
    "HorizontalFusionPass",
    "build_fusion_instance",
    "shard_to_fit_demand",
    "fit_kernel_to_leftover",
]

#: Most pieces a kernel is split into to fit a stage's leftover; each piece
#: pays a launch, so unbounded splitting is counterproductive.
MAX_SHARD_PIECES = 64


def build_fusion_instance(graphs: Sequence[FeatureGraph]) -> FusionInstance:
    """Lower feature graphs to one fusion instance with global op indices:
    the graphs' ops in order, each graph's edges offset by its first op."""
    op_types: list[str] = []
    deps: list[tuple[int, int]] = []
    for graph in graphs:
        base = len(op_types)
        for op in graph.ops:
            op_types.append(op.op_name)
        for src, dst in graph.edges:
            deps.append((base + src, base + dst))
    return FusionInstance(op_types=op_types, deps=deps)


@dataclass(frozen=True)
class FusionPlan:
    """The fused kernel queue for one GPU, in execution (time-step) order.

    A plan may be returned by many :meth:`HorizontalFusionPass.run` calls
    (its run memo), so callers read ``kernels`` and never mutate it.
    """

    kernels: list[KernelDesc]
    assignment: FusionAssignment | None = None
    fused: bool = True

    @property
    def total_latency_us(self) -> float:
        return sum(k.duration_us for k in self.kernels)

    @property
    def max_fusion_degree(self) -> int:
        return max((int(k.meta.get("members", 1)) for k in self.kernels), default=0)


class HorizontalFusionPass:
    """Turns a GPU's feature graphs into an ordered fused-kernel queue.

    A kernel is priced from its configuration alone (§5), so the pass, which
    each planner owns, memoizes five things:

    - **Price table.** Each operator configuration's kernel (:meth:`lower`),
      keyed on the op's type, ``_params_key()``, input count, the rows and
      the list length -- everything ``gpu_kernel`` reads but the output
      name. Ops of one configuration share the priced kernel's fields and
      each gets its own name and ``meta`` dict.
    - **Lowering memo.** Each graph's kernels at a row count
      (:meth:`lower`), keyed on the graph's identity and the rows. An entry
      keeps the graph, its op tuple and its ``avg_list_length`` beside the
      kernels and is used only while all three still match -- an operator
      is a value, never mutated in place (``plan_cache._content``).
    - **Run memo.** Each :meth:`run`'s :class:`FusionPlan`, keyed on the
      identities of the lowered kernel tuples it read. The replicated dense
      group is fused once per search, not once per GPU, and a replan on an
      already searched graph set re-runs only scheduling.
    - **Structure memo.** Solved fusion assignments, keyed on the lowered
      instance's operator types and dependency edges. The assignment
      depends only on structure, never on latencies, so a drifted graph
      set replays its earlier solves instead of re-running the MILP.
    - **Data-preparation terms.** Each (graph, rows)'s operator count and
      raw input bytes (:meth:`data_preparation`), checked like a lowering
      entry. A dense graph placed on every GPU is walked once per search.

    All but the structure memo hold one graph set's entries: :meth:`scope`
    drops them when a search starts on a different set. A drift builds new
    graph objects for every cumulative scale, so an unbounded memo would
    grow with every replan (DESIGN §9). None of them is shared between
    planners, so a fresh planner prices from scratch.
    """

    def __init__(
        self,
        spec: GpuSpec = A100_SPEC,
        enabled: bool = True,
        solver: BranchAndBoundSolver | None = None,
    ) -> None:
        self.spec = spec
        self.enabled = enabled
        self.solver = solver
        self._memo: dict[tuple, tuple[list[int], str, str | None]] = {}
        self.memo_hits = 0
        self._scope: GraphSet | None = None
        self._prices: dict[tuple, KernelDesc] = {}
        self._lowered: dict[tuple[int, int], tuple] = {}
        self._runs: dict[tuple[int, ...], tuple[list, FusionPlan]] = {}
        self._prep_terms: dict[tuple[int, int], tuple] = {}

    def scope(self, graph_set: GraphSet) -> bool:
        """Keep price, lowering, run and data-preparation entries for
        ``graph_set`` only.

        Returns whether ``graph_set`` replaced another set (and the entries
        were dropped).
        """
        if graph_set is self._scope:
            return False
        self._scope = graph_set
        self._prices.clear()
        self._lowered.clear()
        self._runs.clear()
        self._prep_terms.clear()
        return True

    def lower(self, graph: FeatureGraph, rows: int) -> tuple[KernelDesc, ...]:
        """``graph.kernels(rows, self.spec)``, lowered once per graph and rows.

        The entry holds the graph, so no other graph can take its ``id``
        while the entry lives.
        """
        key = (id(graph), rows)
        ops = tuple(graph.ops)
        avg_list_length = graph.avg_list_length
        hit = self._lowered.get(key)
        if hit is not None and hit[1] == ops and hit[2] == avg_list_length:
            return hit[3]
        price = self._price
        kernels = tuple([price(op, rows, avg_list_length) for op in ops])
        self._lowered[key] = (graph, ops, avg_list_length, kernels)
        return kernels

    def data_preparation(self, graphs: Sequence[FeatureGraph], rows: int) -> DataPreparation:
        """``estimate_data_preparation(graphs, rows, self.spec)``, each
        graph's terms taken once per rows and summed in ``graphs`` order."""
        terms = []
        for graph in graphs:
            key = (id(graph), rows)
            ops = tuple(graph.ops)
            avg_list_length = graph.avg_list_length
            hit = self._prep_terms.get(key)
            if hit is None or hit[1] != ops or hit[2] != avg_list_length:
                hit = self._prep_terms[key] = (
                    graph, ops, avg_list_length, data_preparation_terms(graph, rows)
                )
            terms.append(hit[3])
        return data_preparation_from_terms(terms, self.spec)

    def _price(self, op: PreprocessingOp, rows: int, avg_list_length: float) -> KernelDesc:
        """``op.gpu_kernel(rows, self.spec, avg_list_length)``, priced once
        per configuration.

        The key holds everything ``gpu_kernel`` reads besides the output
        name: the class (its cost coefficients and input kind),
        ``_params_key()`` (FirstX's ``x``, Bucketize's border count,
        Ngram's ``n`` and input count, Onehot's class count, ...), the input
        count, the rows and the exact list length.
        """
        key = (type(op), op._params_key(), len(op.inputs), rows, avg_list_length)
        priced = self._prices.get(key)
        if priced is None:
            priced = op.gpu_kernel(rows, self.spec, avg_list_length)
            self._prices[key] = priced
            return priced
        return new_kernel(
            f"{op.op_name}:{op.output}", priced.duration_us, priced.demand, priced.num_warps,
            priced.tag, priced.launch_us, priced.warp_slots, dict(priced.meta),
        )

    def _solve_memoized(self, instance: FusionInstance) -> FusionAssignment:
        key = (tuple(instance.op_types), tuple(instance.deps))
        hit = self._memo.get(key)
        if hit is not None:
            self.memo_hits += 1
            steps, method, milp_status = hit
            return FusionAssignment(instance, list(steps), method=method, milp_status=milp_status)
        assignment = solve_fusion(instance, solver=self.solver)
        self._memo[key] = (list(assignment.steps), assignment.method, assignment.milp_status)
        return assignment

    def run(self, graphs: Sequence[FeatureGraph], rows: int) -> FusionPlan:
        """Fuse the graphs' kernels per the solved fusion assignment.

        With fusion disabled (the ``RAP w/o fusion`` ablation of Fig. 10),
        kernels are emitted individually in dependency order.
        """
        graphs = list(graphs)
        if not graphs:
            return FusionPlan(kernels=[], fused=self.enabled)
        per_graph_kernels = [self.lower(g, rows) for g in graphs]
        # A lowered tuple is taken of one graph at one row count, so its
        # identity fixes both; the entry holds the tuples, so no other
        # tuple can take their ids while it lives.
        key = tuple(map(id, per_graph_kernels))
        hit = self._runs.get(key)
        if hit is not None:
            return hit[1]
        plan = self._fuse(graphs, per_graph_kernels)
        self._runs[key] = (per_graph_kernels, plan)
        return plan

    def _fuse(self, graphs: list[FeatureGraph], per_graph_kernels: list) -> FusionPlan:
        instance = build_fusion_instance(graphs)
        # Global op indices run over the graphs' ops in order.
        op_kernels = [kernel for kernels in per_graph_kernels for kernel in kernels]
        if not self.enabled:
            levels = instance.asap_levels()
            order = sorted(range(len(op_kernels)), key=lambda i: (levels[i], i))
            return FusionPlan(kernels=[op_kernels[i] for i in order], fused=False)

        assignment = self._solve_memoized(instance)
        kernels: list[KernelDesc] = []
        for op_type, step, members in assignment.ordered_groups():
            if len(members) == 1:
                kernels.append(op_kernels[members[0]])
            else:
                kernels.append(fuse_kernels([op_kernels[i] for i in members], self.spec))
        return FusionPlan(kernels=kernels, assignment=assignment, fused=True)


def shard_to_fit_demand(kernel: KernelDesc, leftover: ResourceVector) -> list[KernelDesc] | None:
    """Split ``kernel`` into equal pieces whose demand fits ``leftover``.

    This is what makes the schedule *contention-free* on the device: a
    piece whose (SM, DRAM) demand fits inside the training stage's leftover
    co-runs at full speed with zero training slowdown.

    Sharding below one wave per piece is allowed but not free: a sub-wave
    shard still costs a full wave of execution (warps carry fixed
    per-thread work), so the pieces' total latency exceeds the parent's.
    The shards report their true inflated durations and the scheduler
    prices them against stage capacity -- hiding inflated work is still a
    win over exposing the un-inflated kernel. Returns ``None`` when the
    leftover is so thin that more than ``MAX_SHARD_PIECES`` pieces would
    be needed.

    The pieces are peeled off the kernel one at a time, each an equal
    share of the whole split off what the earlier pieces left
    (:func:`_split_fields`); the last piece is the final remainder. They
    are named ``#a``, ``#b#a``, ..., ``#b#b..#b`` and carry ``meta``
    without ``member_kernels``. The remainders are never built: only the
    returned pieces are.
    """
    sm_demand, dram_demand = kernel.demand.sm, kernel.demand.dram
    if sm_demand <= leftover.sm + 1e-12 and dram_demand <= leftover.dram + 1e-12:
        return [kernel]
    if (sm_demand > 0 and leftover.sm <= 0) or (dram_demand > 0 and leftover.dram <= 0):
        return None

    if kernel.warp_slots > 0 and kernel.num_warps > 0:
        # Pick the piece size so per-piece demand fits both resources. A
        # piece's SM demand is warps/slots; its DRAM demand scales with its
        # share of the parent's resident warps.
        limits = [float(kernel.num_warps)]
        if sm_demand > 0:
            limits.append(kernel.warp_slots * leftover.sm)
        if dram_demand > 0:
            limits.append(kernel.warp_slots * min(1.0, leftover.dram / dram_demand))
        max_piece_warps = min(limits)
        if max_piece_warps < 1.0:
            return None
        pieces = math.ceil(kernel.num_warps / max_piece_warps)
    else:
        ratios = [leftover.sm / sm_demand if sm_demand > 0 else math.inf,
                  leftover.dram / dram_demand if dram_demand > 0 else math.inf]
        ratio = min(ratios)
        # A ratio so small that 1 / ratio overflows needs too many pieces too.
        if ratio <= 0.0 or 1.0 / ratio > MAX_SHARD_PIECES:
            return None
        pieces = math.ceil(1.0 / ratio)
    if pieces > MAX_SHARD_PIECES:
        return None
    if pieces == 1:
        return [kernel]
    # Piece i takes f / (1 - i f) of the remainder the earlier pieces left
    # and is named ``#a``; the remainder goes on as ``#b``. Each remainder is
    # carried as plain fields instead of being built.
    fraction = 1.0 / pieces
    meta = {k: v for k, v in kernel.meta.items() if k != "member_kernels"} if kernel.meta else {}
    launch, slots = kernel.launch_us, kernel.warp_slots
    duration, sm, dram, warps = kernel.duration_us, sm_demand, dram_demand, kernel.num_warps
    name = kernel.name
    shards: list[KernelDesc] = []
    for i in range(pieces - 1):
        remaining_fraction = fraction / (1.0 - i * fraction)
        (piece_us, piece_sm, piece_dram, piece_warps), (duration, sm, dram, warps) = _split_fields(
            duration, sm, dram, warps, launch, slots, remaining_fraction
        )
        shards.append(new_kernel(
            name + "#a", piece_us, new_vector(piece_sm, piece_dram), piece_warps,
            kernel.tag, launch, slots, dict(meta),
        ))
        name += "#b"
    shards.append(new_kernel(
        name, duration, new_vector(sm, dram), warps, kernel.tag, launch, slots, meta,
    ))
    return shards


def _split_fields(
    duration: float, sm: float, dram: float, warps: int, launch: float, slots: int,
    fraction: float,
) -> tuple[tuple[float, float, float, int], tuple[float, float, float, int]]:
    """Split a kernel with these fields into ``fraction`` of its work and the
    rest; returns each part's ``(duration_us, sm, dram, num_warps)``.

    Each part launches its share of the warps (rounded, at least one; none
    for a kernel without warps) and pays a full launch. With warp slots
    known, a part's body is the kernel's one-wave body (the wave floor)
    times the part's own wave count, never below one wave, so a sub-wave
    part is no faster than a full wave. Its SM demand is its warps over the
    slots, at most 1, and its DRAM demand scales by its SM demand over the
    kernel's (by its fraction when the kernel demands no SM), never above
    the kernel's. Without slots or warps, the body and both demands scale
    by the fraction.
    """
    rest = 1.0 - fraction
    body = max(0.0, duration - launch)
    if slots > 0 and warps > 0:
        first_warps = max(1, int(round(warps * fraction)))
        rest_warps = max(1, int(round(warps * rest)))
        wave_floor = body / max(1.0, warps / slots)
        first_sm = min(1.0, first_warps / slots)
        rest_sm = min(1.0, rest_warps / slots)
        return (
            (launch + wave_floor * max(1.0, first_warps / slots), first_sm,
             min(1.0, dram * min(1.0, first_sm / sm if sm > 0 else fraction)), first_warps),
            (launch + wave_floor * max(1.0, rest_warps / slots), rest_sm,
             min(1.0, dram * min(1.0, rest_sm / sm if sm > 0 else rest)), rest_warps),
        )
    first_warps = max(1, int(round(warps * fraction))) if warps else 0
    rest_warps = max(1, int(round(warps * rest))) if warps else 0
    return (
        (launch + body * fraction, sm * fraction, dram * fraction, first_warps),
        (launch + body * rest, sm * rest, dram * rest, rest_warps),
    )


def fit_kernel_to_leftover(
    kernel: KernelDesc,
    leftover: ResourceVector,
    spec: GpuSpec,
) -> list[KernelDesc] | None:
    """Make ``kernel`` co-runnable within ``leftover``, the paper's way.

    §6.2: "RAP shards the kernel and reduces the kernel fusion degree until
    the kernel is small enough to co-run." The preference order is:

    1. The kernel already fits -- use it as is.
    2. The kernel is fused and its *members* can be regrouped into smaller
       fused kernels whose summed demand fits. This keeps every member at
       its natural wave efficiency (no latency inflation beyond the extra
       launches), so it is always preferred over warp-level splitting.
    3. Warp-level sharding (:func:`shard_to_fit_demand`), which may cost
       sub-wave inflation.

    Returns the replacement kernel list, or ``None`` when even a single
    member cannot be made to fit. The result depends only on the kernel,
    the leftover and the spec, so :class:`ResourceAwareScheduler` fits
    each kernel and leftover once (``repro.core.scheduler``).
    """
    if kernel.demand.fits_within(leftover):
        return [kernel]
    members = kernel.meta.get("member_kernels") if kernel.meta else None
    if not members:
        return shard_to_fit_demand(kernel, leftover)

    # ``ResourceVector.fits_within`` and ``+`` on plain floats, in the same
    # operations: a demand fits when each part is <= the leftover's + 1e-12.
    sm_room, dram_room = leftover.sm + 1e-12, leftover.dram + 1e-12
    pieces: list[KernelDesc] = []
    chunk: list[KernelDesc] = []
    chunk_sm = chunk_dram = 0.0
    for member in members:
        demand = member.demand
        sm, dram = demand.sm, demand.dram
        candidate_sm, candidate_dram = chunk_sm + sm, chunk_dram + dram
        if chunk and not (candidate_sm <= sm_room and candidate_dram <= dram_room):
            pieces.append(fuse_kernels(chunk, spec) if len(chunk) > 1 else chunk[0])
            chunk = []
            chunk_sm = chunk_dram = 0.0
            candidate_sm, candidate_dram = sm, dram
        if not (sm <= sm_room and dram <= dram_room):
            # Even alone the member is too wide: warp-shard it.
            shards = shard_to_fit_demand(member, leftover)
            if shards is None:
                return None
            pieces.extend(shards)
            continue
        chunk.append(member)
        chunk_sm, chunk_dram = candidate_sm, candidate_dram
    if chunk:
        pieces.append(fuse_kernels(chunk, spec) if len(chunk) > 1 else chunk[0])
    if len(pieces) > MAX_SHARD_PIECES:
        return None
    return pieces
