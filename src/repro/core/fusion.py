"""Resource-aware horizontal kernel fusion (§6).

Bridges the preprocessing-graph world and the MILP world: a set of feature
graphs assigned to one GPU is lowered to a :class:`FusionInstance`
(operator types + dependency edges), solved for the optimal horizontal
fusion plan, and the resulting fusion groups are materialized as fused
:class:`KernelDesc` objects in time-step order -- the ``Fused_Kernels``
queue consumed by Algorithm 1.

Also provides the two sharding primitives of §6.2:

- :func:`shard_by_latency` -- split a kernel so its first piece fits a
  remaining overlapping-capacity budget (Algorithm 1, lines 21-26).
- :func:`shard_to_fit_demand` -- split a kernel into equal pieces whose
  individual resource demand fits a training stage's leftover, avoiding
  contention entirely (the "resource-aware" part of fused-kernel sharding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..gpusim.kernel import KernelDesc, fuse_kernels, shard_kernel
from ..gpusim.resources import GpuSpec, ResourceVector, A100_SPEC
from ..milp.branch_and_bound import BranchAndBoundSolver
from ..milp.fusion_problem import FusionAssignment, FusionInstance, solve_fusion
from ..preprocessing.graph import FeatureGraph, GraphSet
from ..preprocessing.ops import PreprocessingOp

__all__ = [
    "FusionPlan",
    "HorizontalFusionPass",
    "build_fusion_instance",
    "shard_by_latency",
    "shard_to_fit_demand",
    "fit_kernel_to_leftover",
]


def build_fusion_instance(graphs: Sequence[FeatureGraph]) -> tuple[FusionInstance, list[tuple[int, int]]]:
    """Lower feature graphs to one fusion instance with global op indices.

    Returns the instance and a map from global op index to
    ``(graph_index, op_index_within_graph)``.
    """
    op_types: list[str] = []
    deps: list[tuple[int, int]] = []
    origin: list[tuple[int, int]] = []
    for g_idx, graph in enumerate(graphs):
        base = len(op_types)
        for o_idx, op in enumerate(graph.ops):
            op_types.append(op.op_name)
            origin.append((g_idx, o_idx))
        for src, dst in graph.edges:
            deps.append((base + src, base + dst))
    return FusionInstance(op_types=op_types, deps=deps), origin


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
    def num_kernels(self) -> int:
        return len(self.kernels)

    @property
    def max_fusion_degree(self) -> int:
        return max((int(k.meta.get("members", 1)) for k in self.kernels), default=0)


class HorizontalFusionPass:
    """Turns a GPU's feature graphs into an ordered fused-kernel queue.

    A kernel is priced from its configuration alone (§5), so the pass, which
    each planner owns, memoizes four things:

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

    def scope(self, graph_set: GraphSet) -> bool:
        """Keep price, lowering and run entries for ``graph_set`` only.

        Returns whether ``graph_set`` replaced another set (and the entries
        were dropped).
        """
        if graph_set is self._scope:
            return False
        self._scope = graph_set
        self._prices.clear()
        self._lowered.clear()
        self._runs.clear()
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
        kernels = tuple(self._price(op, rows, avg_list_length) for op in ops)
        self._lowered[key] = (graph, ops, avg_list_length, kernels)
        return kernels

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
            priced = op.gpu_kernel(rows, self.spec, avg_list_length=avg_list_length)
            self._prices[key] = priced
            return priced
        return KernelDesc(
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
        instance, origin = build_fusion_instance(graphs)
        if not self.enabled:
            levels = instance.asap_levels()
            order = sorted(range(len(origin)), key=lambda i: (levels[i], i))
            kernels = [per_graph_kernels[origin[i][0]][origin[i][1]] for i in order]
            return FusionPlan(kernels=kernels, fused=False)

        assignment = self._solve_memoized(instance)
        kernels: list[KernelDesc] = []
        for op_type, step, members in assignment.ordered_groups():
            member_kernels = [
                per_graph_kernels[origin[i][0]][origin[i][1]] for i in members
            ]
            kernels.append(fuse_kernels(member_kernels, self.spec))
        return FusionPlan(kernels=kernels, assignment=assignment, fused=True)


def shard_by_latency(
    kernel: KernelDesc,
    capacity_us: float,
    min_fraction: float = 0.05,
) -> tuple[KernelDesc, KernelDesc] | None:
    """Split ``kernel`` so the first shard's latency is about ``capacity_us``.

    Returns ``None`` when the capacity admits less than ``min_fraction`` of
    the kernel (sharding overhead would dominate) -- the caller should move
    on to the next training stage instead, exactly like Algorithm 1 pushes
    the remainder back onto the queue.
    """
    if kernel.duration_us <= 0:
        return None
    if kernel.warp_slots > 0 and kernel.waves <= 1.0:
        # A single-wave kernel cannot be made shorter by splitting: both
        # shards would keep the full wave-floor body and add a launch.
        return None
    fraction = capacity_us / kernel.duration_us
    if fraction >= 1.0:
        return None
    if fraction < min_fraction:
        return None
    return shard_kernel(kernel, fraction)


def shard_to_fit_demand(
    kernel: KernelDesc,
    leftover: ResourceVector,
    max_pieces: int = 16,
) -> list[KernelDesc] | None:
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
    leftover is so thin that more than ``max_pieces`` pieces would be
    needed (each piece also pays launch overhead, so unbounded splitting
    is counterproductive).

    The pieces equal, field for field, the chain of :func:`shard_kernel`
    calls that peels one equal piece off the remainder at a time (names
    ``#a``, ``#b#a``, ..., ``#b#b..#b``; ``meta`` without
    ``member_kernels``). The chain's intermediate remainders are never
    built: only the returned pieces are.
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
        if ratio <= 0.0 or 1.0 / ratio > max_pieces:
            return None
        pieces = math.ceil(1.0 / ratio)
    if pieces > max_pieces:
        return None
    if pieces == 1:
        return [kernel]
    # The pieces of the chain ``first, rest = shard_kernel(rest, f / (1 - i f))``:
    # piece i is ``rest_i.scaled(.., "#a")`` and the last piece is the final
    # remainder. The intermediate remainders are carried as plain fields, in
    # ``KernelDesc.scaled``'s operation order, instead of being built.
    fraction = 1.0 / pieces
    meta = {k: v for k, v in kernel.meta.items() if k != "member_kernels"} if kernel.meta else {}
    launch, slots = kernel.launch_us, kernel.warp_slots
    duration, sm, dram, warps = kernel.duration_us, sm_demand, dram_demand, kernel.num_warps
    name = kernel.name
    shards: list[KernelDesc] = []
    for i in range(pieces - 1):
        remaining_fraction = fraction / (1.0 - i * fraction)
        piece_us, piece_sm, piece_dram, piece_warps = _scaled_fields(
            duration, sm, dram, warps, launch, slots, remaining_fraction
        )
        shards.append(KernelDesc(
            name + "#a", piece_us, ResourceVector(piece_sm, piece_dram), piece_warps,
            kernel.tag, launch, slots, dict(meta),
        ))
        duration, sm, dram, warps = _scaled_fields(
            duration, sm, dram, warps, launch, slots, 1.0 - remaining_fraction
        )
        name += "#b"
    shards.append(KernelDesc(
        name, duration, ResourceVector(sm, dram), warps, kernel.tag, launch, slots, meta,
    ))
    return shards


def _scaled_fields(
    duration: float, sm: float, dram: float, warps: int, launch: float, slots: int,
    fraction: float,
) -> tuple[float, float, float, int]:
    """``(duration_us, sm, dram, num_warps)`` of ``KernelDesc.scaled(fraction)``
    on a kernel with these fields, computed in the same order."""
    new_warps = max(1, int(round(warps * fraction))) if warps else 0
    body = max(0.0, duration - launch)
    if slots > 0 and warps > 0:
        new_body = body / max(1.0, warps / slots) * max(1.0, new_warps / slots)
        new_sm = min(1.0, new_warps / slots)
        dram_scale = new_sm / sm if sm > 0 else fraction
        new_dram = min(1.0, dram * min(1.0, dram_scale))
    else:
        new_body = body * fraction
        new_sm = sm * fraction
        new_dram = dram * fraction
    return launch + new_body, new_sm, new_dram, new_warps


def fit_kernel_to_leftover(
    kernel: KernelDesc,
    leftover: ResourceVector,
    spec: GpuSpec = A100_SPEC,
    max_pieces: int = 64,
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
        return shard_to_fit_demand(kernel, leftover, max_pieces)

    pieces: list[KernelDesc] = []
    chunk: list[KernelDesc] = []
    chunk_demand = ResourceVector(0.0, 0.0)
    for member in members:
        candidate = chunk_demand + member.demand
        if chunk and not candidate.fits_within(leftover):
            pieces.append(fuse_kernels(chunk, spec) if len(chunk) > 1 else chunk[0])
            chunk = []
            chunk_demand = ResourceVector(0.0, 0.0)
            candidate = member.demand
        if not member.demand.fits_within(leftover):
            # Even alone the member is too wide: warp-shard it.
            shards = shard_to_fit_demand(member, leftover, max_pieces)
            if shards is None:
                return None
            pieces.extend(shards)
            continue
        chunk.append(member)
        chunk_demand = candidate
    if chunk:
        pieces.append(fuse_kernels(chunk, spec) if len(chunk) > 1 else chunk[0])
    if len(pieces) > max_pieces:
        return None
    return pieces
