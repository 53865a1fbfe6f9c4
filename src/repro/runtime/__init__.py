"""Fault-tolerant execution layer over searched co-running plans.

The planner (:mod:`repro.core`) answers "what is the best placement"; this
package answers "what happens when that placement's assumptions break".
It provides deterministic fault injection, retry with backoff and
per-stage deadlines, the five-rung graceful-degradation ladder
(co-run -> shard-retry -> trailing -> sequential -> CPU fallback), a
latency watchdog that regenerates stale plans, and the structured
:class:`ResilienceReport` the CLI renders and serializes.

On top of the ladder sit the whole-run robustness mechanisms: elastic GPU
membership (``gpu_lost`` terminal faults shrink the fleet, re-shard the
embeddings, and warm-replan down to one GPU and finally CPU-only),
iteration-consistent checkpoints with manifest-sealed atomic artifacts,
and an append-only crash-safe run journal. The shadow planner
(:mod:`repro.runtime.shadow`) continuously searches candidate plans
against live calibrated costs and promotes one only when a guarded
replay-window comparison clears its margin, with probation monitoring
and automatic rollback to a pinned anchor checkpoint.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointManager,
    Snapshot,
)
from .elastic import (
    RESHARD_BASE_US,
    MembershipChange,
    clone_planner,
    reshard_cost_us,
    surviving_mapping,
)
from .executor import (
    POOL_RESTART_BASE_US,
    DataPathVerifier,
    DataVerification,
    DataVerificationError,
    FaultTolerantRuntime,
    KernelRecovery,
    SimulatedKill,
)
from .faults import (
    CPU_POOL_CRASH,
    FAULT_KINDS,
    FUSED_OOM,
    GPU_LOST,
    KERNEL_FAILURE,
    KERNEL_FAULT_KINDS,
    LATENCY_OVERRUN,
    PLAN_DRIFT,
    FaultEvent,
    FaultInjector,
    FaultSpec,
)
from .journal import JournalFlaw, RunJournal, validate_records
from .ladder import (
    CO_RUN,
    CPU_FALLBACK,
    LADDER,
    SEQUENTIAL,
    SHARD_RETRY,
    TRAILING,
    LadderTransition,
)
from .report import IterationRecord, ResilienceReport
from .retry import RetryPolicy
from .shadow import (
    PROBATION_ABORTED,
    PROBATION_COMMITTED,
    PROBATION_OUTCOMES,
    PROBATION_ROLLED_BACK,
    CandidateVerdict,
    ShadowConfig,
    ShadowObservation,
    ShadowPlanner,
)
from .watchdog import LatencyWatchdog, WatchdogDecision

__all__ = [
    "DataPathVerifier",
    "DataVerification",
    "DataVerificationError",
    "FaultTolerantRuntime",
    "KernelRecovery",
    "SimulatedKill",
    "POOL_RESTART_BASE_US",
    "RESHARD_BASE_US",
    "MembershipChange",
    "reshard_cost_us",
    "surviving_mapping",
    "clone_planner",
    "CheckpointManager",
    "CheckpointError",
    "Snapshot",
    "CHECKPOINT_FORMAT_VERSION",
    "RunJournal",
    "JournalFlaw",
    "validate_records",
    "ShadowConfig",
    "ShadowObservation",
    "ShadowPlanner",
    "CandidateVerdict",
    "PROBATION_COMMITTED",
    "PROBATION_ROLLED_BACK",
    "PROBATION_ABORTED",
    "PROBATION_OUTCOMES",
    "FaultSpec",
    "FaultEvent",
    "FaultInjector",
    "FAULT_KINDS",
    "KERNEL_FAULT_KINDS",
    "KERNEL_FAILURE",
    "LATENCY_OVERRUN",
    "FUSED_OOM",
    "CPU_POOL_CRASH",
    "PLAN_DRIFT",
    "GPU_LOST",
    "LADDER",
    "CO_RUN",
    "SHARD_RETRY",
    "TRAILING",
    "SEQUENTIAL",
    "CPU_FALLBACK",
    "LadderTransition",
    "RetryPolicy",
    "LatencyWatchdog",
    "WatchdogDecision",
    "IterationRecord",
    "ResilienceReport",
]
