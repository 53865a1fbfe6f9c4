"""Deterministic, seeded fault injection for plan execution.

The searched plan is only correct while its assumptions hold; production
input pipelines treat kernel failures, latency overruns, OOMs, worker
crashes, and input drift as first-class events rather than exceptions.
This module decides *what goes wrong when*: given a seed and an iteration
index, :class:`FaultInjector` draws a reproducible set of
:class:`FaultEvent` objects against a concrete plan's kernel placement.

Determinism contract: the events for ``(seed, iteration, plan placement)``
are a pure function -- re-running a workload with the same seed replays
the exact same fault schedule, which is what makes resilience regressions
bisectable. The per-iteration RNG is derived from a string seed, so the
stream is independent of Python hash randomization.

The fault classes mirror the error taxonomy of
:mod:`repro.preprocessing.executor`; :data:`FAULT_EXCEPTIONS` maps each
kind to the exception a real execution backend would raise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.planner import RapPlan
from ..preprocessing.executor import (
    DeviceLostError,
    KernelExecutionError,
    KernelOOMError,
    PreprocessingError,
    WorkerPoolError,
)
from .memo import IdentityMemo

__all__ = [
    "KERNEL_FAILURE",
    "LATENCY_OVERRUN",
    "FUSED_OOM",
    "CPU_POOL_CRASH",
    "PLAN_DRIFT",
    "GPU_LOST",
    "FAULT_KINDS",
    "FAULT_KIND_IDS",
    "FAULT_EXCEPTIONS",
    "FaultSpec",
    "FaultEvent",
    "FaultInjector",
]

KERNEL_FAILURE = "kernel_failure"
LATENCY_OVERRUN = "latency_overrun"
FUSED_OOM = "fused_oom"
CPU_POOL_CRASH = "cpu_pool_crash"
PLAN_DRIFT = "plan_drift"
GPU_LOST = "gpu_lost"

#: APPEND-ONLY contract: fault kinds are persisted by name in journals,
#: checkpoints, plan artifacts, and forge scenarios, and the injector's
#: per-iteration RNG consumes one draw per spec *in this tuple's order*.
#: Reordering or removing an entry silently changes every replayed fault
#: schedule; new kinds must be appended at the end. The positional ids in
#: :data:`FAULT_KIND_IDS` are regression-pinned.
FAULT_KINDS = (
    KERNEL_FAILURE, LATENCY_OVERRUN, FUSED_OOM, CPU_POOL_CRASH, PLAN_DRIFT, GPU_LOST,
)

#: Stable positional identifier of each kind (see the append-only contract
#: on :data:`FAULT_KINDS`).
FAULT_KIND_IDS = {kind: i for i, kind in enumerate(FAULT_KINDS)}

#: Kinds that target one placed kernel (as opposed to the host or the plan).
KERNEL_FAULT_KINDS = (KERNEL_FAILURE, LATENCY_OVERRUN, FUSED_OOM)

FAULT_EXCEPTIONS: dict[str, type[PreprocessingError]] = {
    KERNEL_FAILURE: KernelExecutionError,
    LATENCY_OVERRUN: KernelExecutionError,
    FUSED_OOM: KernelOOMError,
    CPU_POOL_CRASH: WorkerPoolError,
    PLAN_DRIFT: PreprocessingError,
    GPU_LOST: DeviceLostError,
}


@dataclass(frozen=True)
class FaultSpec:
    """Injection parameters for one fault class.

    ``rate`` is the per-iteration probability of one event of this kind.
    ``magnitude`` is kind-specific: the latency inflation factor for
    overruns, the drift scale step for plan drift, and the restart latency
    multiplier for pool crashes. ``persistence`` is the probability that an
    injected fault resists *every* same-placement recovery attempt and
    forces the full descent of the degradation ladder.
    """

    kind: str
    rate: float
    magnitude: float = 2.0
    persistence: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be a probability in [0, 1]")
        if self.magnitude <= 0:
            raise ValueError("magnitude must be positive")
        if not 0.0 <= self.persistence <= 1.0:
            raise ValueError("persistence must be a probability in [0, 1]")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, bound to a concrete target.

    ``stage`` is the training-stage index hosting the kernel (-1 for
    trailing kernels and non-kernel faults). ``recover_after`` encodes the
    injected failure's depth: a retry of the same placement succeeds after
    that many failed attempts, and ``-1`` marks a persistent fault that no
    GPU placement survives (the ladder must fall through to CPU fallback).
    """

    kind: str
    iteration: int
    gpu: int = -1
    stage: int = -1
    kernel: str = ""
    magnitude: float = 1.0
    recover_after: int = 1

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "iteration": self.iteration,
            "gpu": self.gpu,
            "stage": self.stage,
            "kernel": self.kernel,
            "magnitude": self.magnitude,
            "recover_after": self.recover_after,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(**data)


@dataclass(frozen=True)
class _PlanSites:
    """A plan's ``(gpu, stage, kernel name)`` placement sites, in plan order
    (trailing kernels at stage -1): the staged ones, those followed by the
    trailing ones, and the staged fused ones (OOM's preferred victims)."""

    staged: list[tuple[int, int, str]]
    with_trailing: list[tuple[int, int, str]]
    fused: list[tuple[int, int, str]]

    @classmethod
    def of(cls, plan: RapPlan) -> "_PlanSites":
        staged: list[tuple[int, int, str]] = []
        fused: list[tuple[int, int, str]] = []
        for gpu, per_gpu in enumerate(plan.assignments_per_gpu):
            for stage in sorted(per_gpu):
                for kernel in per_gpu[stage]:
                    staged.append((gpu, stage, kernel.name))
                    if int(kernel.meta.get("members", 1)) > 1:
                        fused.append((gpu, stage, kernel.name))
        trailing = [
            (gpu, -1, kernel.name)
            for gpu, kernels in enumerate(plan.trailing_per_gpu)
            for kernel in kernels
        ]
        return cls(staged, staged + trailing, fused)


@dataclass
class FaultInjector:
    """Draws a deterministic fault schedule against a plan, per iteration.

    Two fault sources compose:

    - ``specs``: independent per-iteration Bernoulli draws, one per kind
      (the PR-1 behavior, byte-for-byte unchanged for existing seeds).
    - ``schedule``: explicit pre-drawn :class:`FaultEvent` objects -- the
      carrier for *correlated* fault patterns (same-host ``gpu_lost``
      pairs, cascading pool crashes, drift storms) that independent draws
      cannot express. Scheduled events fire before rate-drawn events in
      their listed order and never consume RNG state, so adding a schedule
      leaves the rate-drawn stream of a given seed untouched.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    schedule: tuple[FaultEvent, ...] = ()
    # Each plan's placement sites, walked once per plan object.
    _sites: IdentityMemo[_PlanSites] = field(
        default_factory=IdentityMemo, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)
        kinds = [s.kind for s in self.specs]
        if len(kinds) != len(set(kinds)):
            raise ValueError("at most one FaultSpec per fault kind")
        self.schedule = tuple(self.schedule)
        for event in self.schedule:
            if event.kind not in FAULT_KINDS:
                raise ValueError(
                    f"scheduled event has unknown fault kind {event.kind!r}; "
                    f"expected one of {FAULT_KINDS}"
                )
            if event.iteration < 0:
                raise ValueError("scheduled events need a non-negative iteration")

    @property
    def enabled(self) -> bool:
        return any(spec.rate > 0 for spec in self.specs) or bool(self.schedule)

    # ------------------------------------------------------------------

    def _rng(self, iteration: int) -> random.Random:
        # String seeding goes through a stable hash in CPython, so the
        # stream survives PYTHONHASHSEED and process restarts.
        return random.Random(f"rap-fault:{self.seed}:{iteration}")

    def faults_for_iteration(self, iteration: int, plan: RapPlan) -> list[FaultEvent]:
        """The fault schedule for one iteration of one plan."""
        events: list[FaultEvent] = []
        if not self.enabled:
            return events
        events.extend(e for e in self.schedule if e.iteration == iteration)
        rng = self._rng(iteration)
        for spec in self.specs:
            if rng.random() >= spec.rate:
                continue
            event = self._draw_event(rng, spec, iteration, plan)
            if event is not None:
                events.append(event)
        return events

    def _draw_event(
        self,
        rng: random.Random,
        spec: FaultSpec,
        iteration: int,
        plan: RapPlan,
    ) -> FaultEvent | None:
        if spec.kind == CPU_POOL_CRASH:
            return FaultEvent(
                kind=spec.kind,
                iteration=iteration,
                magnitude=spec.magnitude,
                recover_after=1,
            )
        if spec.kind == GPU_LOST:
            # Terminal device loss: no same-device recovery exists, so the
            # depth is always persistent. The victim is drawn from the
            # *current* fleet, which shrinks as earlier losses land.
            return FaultEvent(
                kind=spec.kind,
                iteration=iteration,
                gpu=rng.randrange(plan.workload.num_gpus),
                magnitude=spec.magnitude,
                recover_after=-1,
            )
        if spec.kind == PLAN_DRIFT:
            # Drift a step up or down; magnitude bounds the step factor.
            direction = 1.0 if rng.random() < 0.5 else -1.0
            step = spec.magnitude ** direction
            return FaultEvent(
                kind=spec.kind,
                iteration=iteration,
                magnitude=step,
                recover_after=0,
            )

        plan_sites = self._sites.get((plan,), (), lambda: _PlanSites.of(plan))
        if spec.kind == FUSED_OOM:
            sites = plan_sites.fused or plan_sites.staged
        elif spec.kind == KERNEL_FAILURE:
            sites = plan_sites.with_trailing
        else:
            sites = plan_sites.staged
        if not sites:
            return None
        gpu, stage, kernel = sites[rng.randrange(len(sites))]
        if rng.random() < spec.persistence:
            recover_after = -1
        else:
            # Depth of the failure: 1-2 recovers under in-place retry, 3+
            # exhausts the default retry budget and exercises re-sharding.
            recover_after = 1 + rng.randrange(4)
        return FaultEvent(
            kind=spec.kind,
            iteration=iteration,
            gpu=gpu,
            stage=stage,
            kernel=kernel,
            magnitude=spec.magnitude,
            recover_after=recover_after,
        )
