"""The single-GPU co-running simulator.

This is the physics core of the reproduction. A device executes a DLRM
training iteration expressed as a sequence of :class:`StageProfile` spans,
optionally co-running a queue of preprocessing kernels assigned per stage
(RAP), or issued greedily from the start of the iteration (the CUDA-stream
and MPS baselines).

Contention model
----------------
While a preprocessing kernel is resident alongside a training stage, both
advance at ``1 / s`` of their standalone rate, where
``s = max(1, sm_train + sm_kernel, dram_train + dram_kernel)`` is the
rate-sharing slowdown of the most oversubscribed resource. When the kernel
fits in the training stage's leftover resources ``s == 1``: the paper's
contention-free co-running regime where preprocessing is literally free.
This reproduces the behaviour measured in the paper's Fig. 1c (training
latency inflates once the co-running NGram kernel outgrows the leftover)
and Fig. 5b (overlapping latency tracks standalone latency linearly once
capacity is exhausted).

An iteration's result is a pure function of the stages, of the few kernel
fields the loop reads, of the policy and of the start time, so each device
remembers its most recent results and hands the same object back for a
repeated input: results are shared and must never be mutated. The
utilization trace is a figure artifact; the loop records plain segment
tuples and :attr:`IterationResult.trace` builds the trace on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from .kernel import KernelDesc
from .resources import GpuSpec, ResourceVector, A100_SPEC
from .trace import TraceSegment, UtilizationTrace

__all__ = [
    "StageProfile",
    "StagePipeline",
    "CoRunPolicy",
    "KernelSpan",
    "StageSpan",
    "IterationResult",
    "GpuDevice",
]


@dataclass(frozen=True)
class StageProfile:
    """One span of a training iteration with constant resource utilization."""

    name: str
    duration_us: float
    utilization: ResourceVector

    def __post_init__(self) -> None:
        if self.duration_us < 0:
            raise ValueError(f"stage {self.name!r} has negative duration")
        # Built once per stage: the scheduler reads it for every stage it packs.
        object.__setattr__(self, "_leftover", self.utilization.headroom())

    def leftover(self) -> ResourceVector:
        return self._leftover

    @cached_property
    def sim_key(self) -> tuple:
        """The fields :meth:`GpuDevice.simulate_iteration` reads, as a memo
        key part built once per stage."""
        return (self.name, self.duration_us, self.utilization.sm, self.utilization.dram)


class StagePipeline(tuple):
    """A training iteration's stages, in order: an immutable sequence of
    :class:`StageProfile` whose memo key part is built once."""

    @cached_property
    def sim_key(self) -> tuple:
        return tuple([stage.sim_key for stage in self])


@dataclass(frozen=True)
class CoRunPolicy:
    """How aggressively co-running shares the device.

    ``demand_inflation`` models sharing-mechanism inefficiency: a
    low-priority CUDA stream or an MPS sibling process does not partition
    resources as cleanly as RAP's capacity-sized kernels, so its effective
    footprint is inflated. ``per_kernel_overhead_us`` charges a fixed issue
    overhead per kernel (context switching / software scheduling).
    ``train_stall_us`` models head-of-line blocking at kernel issue: each
    preprocessing kernel injected from a foreign stream/process briefly
    stalls the training stream's launch pipeline. RAP pays none because its
    generated code enqueues the (few, fused) kernels inside the training
    loop itself with pre-resolved dependencies.
    """

    name: str = "rap"
    demand_inflation: float = 1.0
    per_kernel_overhead_us: float = 0.0
    train_stall_us: float = 0.0
    serialization_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.serialization_fraction <= 1.0:
            raise ValueError("serialization_fraction must be in [0, 1]")
        if self.demand_inflation < 0:
            raise ValueError("demand_inflation must be non-negative")

    @cached_property
    def sim_key(self) -> tuple:
        """Every field, as a memo key part built once per policy."""
        return (
            self.name,
            self.demand_inflation,
            self.per_kernel_overhead_us,
            self.train_stall_us,
            self.serialization_fraction,
        )

    def effective(self, kernel: KernelDesc) -> tuple[float, ResourceVector]:
        """Return (effective duration, effective demand) under this policy."""
        duration = kernel.duration_us + self.per_kernel_overhead_us
        demand = kernel.demand.scale(self.demand_inflation)
        return duration, demand


RAP_POLICY = CoRunPolicy(name="rap")
#: The §8.1 CUDA-stream baseline: every preprocessing kernel goes onto one
#: extra low-priority stream and is released at the top of the iteration,
#: contending with whichever training stage is active. Time-sliced SM
#: partitions are coarser than RAP's capacity-sized kernels, hence the
#: inflated demand and the per-kernel issue overhead.
STREAM_POLICY = CoRunPolicy(
    name="cuda_stream",
    demand_inflation=1.35,
    per_kernel_overhead_us=4.0,
    train_stall_us=7.0,
    serialization_fraction=0.80,
)
#: The §8.1 MPS baseline: a preprocessing process shares the GPU with
#: training through MPS. Spatial sharing at thread-percentage granularity
#: inflates demand less than a priority stream, and cross-process submission
#: costs a small per-kernel overhead; kernels are still released at the top
#: of the iteration with no knowledge of the stage's leftover resources.
MPS_POLICY = CoRunPolicy(
    name="mps",
    demand_inflation=1.12,
    per_kernel_overhead_us=1.5,
    train_stall_us=2.5,
    serialization_fraction=0.45,
)


@dataclass(frozen=True, slots=True)
class KernelSpan:
    """Completed execution record of one kernel (possibly across stages)."""

    name: str
    t_start: float
    t_end: float
    tag: str
    overlapped: bool

    @property
    def wall_time(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True, slots=True)
class StageSpan:
    """Completed execution record of one training stage."""

    name: str
    t_start: float
    t_end: float
    standalone_us: float

    @property
    def wall_time(self) -> float:
        return self.t_end - self.t_start

    @property
    def slowdown(self) -> float:
        if self.standalone_us <= 0:
            return 1.0
        return self.wall_time / self.standalone_us


@dataclass(frozen=True)
class IterationResult:
    """Everything the cost model and the figures need from one iteration.

    Immutable, because a device hands one result to every caller that
    repeats its input. ``segments`` holds the utilization timeline as
    ``(t0, t1, sm, dram, label)`` tuples, where a co-run segment's label is
    the ``(stage, kernel)`` pair; :attr:`trace` turns them into a
    :class:`UtilizationTrace` when first read.
    """

    total_time_us: float
    training_time_us: float
    exposed_preprocessing_us: float
    stage_spans: tuple[StageSpan, ...] = ()
    kernel_spans: tuple[KernelSpan, ...] = ()
    segments: tuple[tuple, ...] = field(default=(), repr=False)

    @cached_property
    def trace(self) -> UtilizationTrace:
        return UtilizationTrace(
            TraceSegment(
                t0,
                t1,
                ResourceVector(sm, dram),
                label if isinstance(label, str) else f"{label[0]}+{label[1]}",
            )
            for t0, t1, sm, dram, label in self.segments
        )

    @property
    def training_slowdown(self) -> float:
        standalone = sum(s.standalone_us for s in self.stage_spans)
        if standalone <= 0:
            return 1.0
        return self.training_time_us / standalone


class _RunningKernel:
    """Mutable progress tracker for a kernel moving through the simulation.

    ``sm`` / ``dram`` are the components of ``policy.effective(kernel)``'s
    demand, kept as plain floats for the loop's arithmetic.
    """

    __slots__ = ("kernel", "remaining_us", "sm", "dram", "t_start", "overlapped")

    def __init__(self, kernel: KernelDesc, policy: CoRunPolicy) -> None:
        inflation = policy.demand_inflation
        self.kernel = kernel
        self.remaining_us = kernel.duration_us + policy.per_kernel_overhead_us
        self.sm = kernel.demand.sm * inflation
        self.dram = kernel.demand.dram * inflation
        self.t_start: float | None = None
        self.overlapped = False


#: Results each device remembers, least recently used out first.
MEMO_ENTRIES = 64


def _last_use(item: tuple) -> int:
    return item[1][1]


def _kernels_key(kernels: Sequence[KernelDesc]) -> tuple:
    return tuple([k.sim_key for k in kernels])


class GpuDevice:
    """A single simulated GPU executing training stages and co-run kernels."""

    def __init__(self, spec: GpuSpec = A100_SPEC, device_id: int = 0) -> None:
        self.spec = spec
        self.device_id = device_id
        # Key -> [result, last use]. A hit only restamps its entry, so a
        # lookup hashes its key once; a miss past the bound evicts the
        # entry with the oldest stamp.
        self._memo: dict[tuple, list] = {}
        self._uses = 0

    # ------------------------------------------------------------------
    # Standalone execution
    # ------------------------------------------------------------------

    def run_training_standalone(self, stages: Sequence[StageProfile]) -> IterationResult:
        """Execute a training iteration with no co-running preprocessing."""
        return self.simulate_iteration(stages, assignments={})

    # ------------------------------------------------------------------
    # Co-running simulation
    # ------------------------------------------------------------------

    def simulate_iteration(
        self,
        stages: Sequence[StageProfile],
        assignments: Mapping[int, Sequence[KernelDesc]] | None = None,
        trailing_kernels: Sequence[KernelDesc] = (),
        policy: CoRunPolicy = RAP_POLICY,
        t0: float = 0.0,
    ) -> IterationResult:
        """Simulate one training iteration with per-stage kernel assignments.

        Parameters
        ----------
        stages:
            The training iteration's stage pipeline, executed in order.
        assignments:
            Maps stage index -> kernels released when that stage begins.
            Kernels execute sequentially (one resident co-runner at a time,
            matching how RAP sizes one fused kernel per slot) and spill into
            subsequent stages if they outlast their stage.
        trailing_kernels:
            Kernels released only after all training stages finish; together
            with any spilled work they form the *exposed* preprocessing
            latency -- the quantity RAP's scheduler minimizes.
        policy:
            Sharing mechanism (RAP / CUDA stream / MPS) efficiency knobs.

        A repeat of one of the device's last :data:`MEMO_ENTRIES` inputs
        returns the same (shared, immutable) result object.
        """
        assignments = assignments or {}
        for idx in assignments:
            if not 0 <= idx < len(stages):
                raise IndexError(f"assignment to stage {idx} outside pipeline of {len(stages)} stages")

        if type(stages) is not StagePipeline:
            stages = StagePipeline(stages)
        key = (
            stages.sim_key,
            tuple([(idx, _kernels_key(ks)) for idx, ks in sorted(assignments.items())]),
            _kernels_key(trailing_kernels),
            policy.sim_key,
            t0,
        )
        self._uses += 1
        memo = self._memo
        entry = memo.get(key)
        if entry is not None:
            entry[1] = self._uses
            return entry[0]
        result = self._simulate(stages, assignments, trailing_kernels, policy, t0)
        if len(memo) >= MEMO_ENTRIES:
            del memo[min(memo.items(), key=_last_use)[0]]
        memo[key] = [result, self._uses]
        return result

    @staticmethod
    def _simulate(
        stages: Sequence[StageProfile],
        assignments: Mapping[int, Sequence[KernelDesc]],
        trailing_kernels: Sequence[KernelDesc],
        policy: CoRunPolicy,
        t0: float,
    ) -> IterationResult:
        segments: list[tuple] = []
        record = segments.append
        stage_spans: list[StageSpan] = []
        kernel_spans: list[KernelSpan] = []
        queue: list[_RunningKernel] = []
        t = t0

        for idx, stage in enumerate(stages):
            queue.extend(_RunningKernel(k, policy) for k in assignments.get(idx, ()))
            stage_start = t
            remaining_work = stage.duration_us
            stage_sm = stage.utilization.sm
            stage_dram = stage.utilization.dram

            while remaining_work > 1e-12:
                if not queue:
                    end = t + remaining_work
                    record((t, end, stage_sm, stage_dram, stage.name))
                    t = end
                    remaining_work = 0.0
                    break

                running = queue[0]
                if running.t_start is None:
                    running.t_start = t
                    serial_us = policy.train_stall_us
                    if policy.serialization_fraction > 0:
                        # Whole-SM kernel-granularity scheduling: while the
                        # foreign stream's kernel holds the device, training
                        # kernels cannot launch. The kernel itself advances
                        # at full (standalone) rate during this phase.
                        serial_us += policy.serialization_fraction * running.remaining_us
                        running.remaining_us *= 1.0 - policy.serialization_fraction
                    if serial_us > 0:
                        stall_end = t + serial_us
                        record(
                            (t, stall_end, min(running.sm, 1.0), min(running.dram, 1.0), "issue_stall")
                        )
                        t = stall_end
                        if running.remaining_us <= 1e-9:
                            kernel_spans.append(
                                KernelSpan(
                                    running.kernel.name,
                                    running.t_start,
                                    t,
                                    running.kernel.tag,
                                    True,
                                )
                            )
                            queue.pop(0)
                            continue
                running.overlapped = True
                sm = stage_sm + running.sm
                dram = stage_dram + running.dram
                slowdown = max(1.0, sm, dram)
                # Wall time until either the kernel or the stage completes.
                wall_kernel = running.remaining_us * slowdown
                wall_stage = remaining_work * slowdown
                wall = min(wall_kernel, wall_stage)
                progressed = wall / slowdown
                end = t + wall
                record((t, end, min(sm, 1.0), min(dram, 1.0), (stage.name, running.kernel.name)))
                remaining_work -= progressed
                running.remaining_us -= progressed
                if running.remaining_us <= 1e-9:
                    kernel_spans.append(
                        KernelSpan(running.kernel.name, running.t_start, end, running.kernel.tag, True)
                    )
                    queue.pop(0)
                t = end

            stage_spans.append(StageSpan(stage.name, stage_start, t, stage.duration_us))

        training_end = t

        # Drain spilled kernels plus trailing kernels with the device free:
        # they run at full rate, fully exposed.
        queue.extend(_RunningKernel(k, policy) for k in trailing_kernels)
        for running in queue:
            if running.t_start is None:
                running.t_start = t
            end = t + running.remaining_us
            record((t, end, min(running.sm, 1.0), min(running.dram, 1.0), running.kernel.name))
            kernel_spans.append(
                KernelSpan(running.kernel.name, running.t_start, end, running.kernel.tag, running.overlapped)
            )
            t = end

        return IterationResult(
            total_time_us=t - t0,
            training_time_us=training_end - t0,
            exposed_preprocessing_us=t - training_end,
            stage_spans=tuple(stage_spans),
            kernel_spans=tuple(kernel_spans),
            segments=tuple(segments),
        )

    # ------------------------------------------------------------------
    # Measurement helpers used by the cost model and figures
    # ------------------------------------------------------------------

    def stage_overlapping_capacity(self, stage: StageProfile, probe: ResourceVector) -> float:
        """Overlapping capacity of ``stage`` in standalone-latency units (§5.1).

        The capacity is the largest total standalone latency of kernels with
        demand profile ``probe`` that co-run with the stage for free. A probe
        that fits in the leftover advances at full rate for the stage's whole
        duration, so the capacity equals the stage duration scaled by how
        much of the probe's demand the leftover admits.
        """
        leftover = stage.leftover()
        if probe.sm <= 0 and probe.dram <= 0:
            return stage.duration_us
        ratios = []
        if probe.sm > 0:
            ratios.append(leftover.sm / probe.sm)
        if probe.dram > 0:
            ratios.append(leftover.dram / probe.dram)
        admit = min(1.0, min(ratios)) if ratios else 1.0
        return stage.duration_us * admit
