"""The fault-tolerant co-running runtime.

:class:`FaultTolerantRuntime` wraps a searched :class:`repro.core.RapPlan`
with the machinery a production input pipeline needs when the plan's
assumptions break mid-iteration: deterministic fault injection
(:mod:`repro.runtime.faults`), in-place retry with exponential backoff and
per-stage deadlines (:mod:`repro.runtime.retry`), the graceful-degradation
ladder (:mod:`repro.runtime.ladder`), and a latency watchdog that triggers
plan regeneration when measured exposure drifts away from the prediction
(:mod:`repro.runtime.watchdog`).

Recovery is priced, never hand-waved: failed attempts waste their own wall
time, backoff pauses stall the bulk-synchronous cluster, demoted kernels
surface as exposed latency, and CPU-evicted kernels pace the iteration
through the hybrid worker pool. With injection disabled the runtime is a
transparent shim: its iteration numbers are bit-identical to
:meth:`repro.core.RapPlanner.evaluate` on the same plan.

Beyond the per-kernel ladder, two whole-run mechanisms live here:

- **Elastic membership** (:mod:`repro.runtime.elastic`): a ``gpu_lost``
  fault escalates past the ladder into a fleet shrink -- embedding
  re-shard, warm-started N-1 replan, priced redistribution -- repeating
  down to one GPU and finally a CPU-only regime.
- **Checkpoint/resume** (:mod:`repro.runtime.checkpoint`): the runtime's
  full mutable state serializes to a dict; a restored runtime replays the
  exact trajectory of an uninterrupted run because fault injection is a
  pure function of ``(seed, iteration, placement)``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..core.adaptation import drift_graph_set
from ..core.codegen import compile_plan
from ..core.fusion import fit_kernel_to_leftover
from ..core.hybrid import (
    GPU_TO_CPU_SLOWDOWN,
    CpuWorkerPool,
    cpu_fallback_production_us,
    degraded_pool,
)
from ..core.latency_predictor import kernel_features
from ..core.planner import RapPlan, RapPlanner, RapRunReport, scale_plan_kernels
from ..core.serialization import kernel_from_dict, kernel_to_dict, plan_from_json, plan_to_json
from ..dlrm.training import TrainingWorkload
from ..gpusim.kernel import KernelDesc
from ..preprocessing.data import Batch, CriteoSchema, SyntheticCriteoDataset
from ..preprocessing.executor import DataPreparation, execute_graph_set
from ..preprocessing.graph import GraphSet
from ..telemetry import (
    CalibratedPredictor,
    CalibrationSample,
    DriftEvent,
    LatencyDrift,
    SampleBatch,
    TelemetrySession,
    drift_factors_at,
)
from .elastic import MembershipChange, clone_planner, reshard_cost_us, surviving_mapping
from .faults import (
    CPU_POOL_CRASH,
    FUSED_OOM,
    GPU_LOST,
    KERNEL_FAILURE,
    LATENCY_OVERRUN,
    PLAN_DRIFT,
    FaultEvent,
    FaultInjector,
)
from .journal import RunJournal
from .ladder import (
    CO_RUN,
    CPU_FALLBACK,
    SEQUENTIAL,
    SHARD_RETRY,
    TRAILING,
    LadderTransition,
)
from .memo import IdentityMemo
from .report import IterationRecord, ResilienceReport
from .retry import RetryPolicy
from .shadow import (
    PROBATION_ABORTED,
    PROBATION_COMMITTED,
    PROBATION_ROLLED_BACK,
    ShadowObservation,
    ShadowPlanner,
)
from .watchdog import LatencyWatchdog

if TYPE_CHECKING:  # pragma: no cover
    from .checkpoint import CheckpointManager, Snapshot

__all__ = [
    "DataPathVerifier",
    "DataVerification",
    "DataVerificationError",
    "KernelRecovery",
    "FaultTolerantRuntime",
    "SimulatedKill",
    "POOL_RESTART_BASE_US",
    "SEQUENTIAL_FAULT_THRESHOLD",
]

#: Host-side worker-pool restart latency per unit of crash magnitude.
POOL_RESTART_BASE_US = 1_000.0

#: Kernel faults on one GPU in one iteration that suspend its co-running
#: for that iteration (the sequential fallback).
SEQUENTIAL_FAULT_THRESHOLD = 3

#: Fraction of a stage's leftover resources offered to re-sharded pieces;
#: recovering at reduced footprint is what sidesteps OOM-like faults.
_RESHARD_LEFTOVER_FRACTION = 0.5


class SimulatedKill(RuntimeError):
    """Raised by ``run(kill_after=...)`` to emulate a hard process death.

    The journal and any checkpoints written so far stay on disk exactly as
    a real ``SIGKILL`` would leave them; tests resume from them.
    """

    def __init__(self, iteration: int) -> None:
        self.iteration = iteration
        super().__init__(f"simulated kill after iteration {iteration}")


class DataVerificationError(RuntimeError):
    """Raised when the compiled engine diverges from naive."""


@dataclass(frozen=True)
class DataVerification:
    """Outcome of one engine-vs-naive functional cross-check."""

    iteration: int
    plan_epoch: int
    columns_checked: int
    mismatched: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatched

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "plan_epoch": self.plan_epoch,
            "columns_checked": self.columns_checked,
            "mismatched": list(self.mismatched),
            "ok": self.ok,
        }


class DataPathVerifier:
    """Periodic engine-backed functional verification of the active plan.

    The runtime itself is a latency simulator; this hook grounds it in the
    *functional* data path. Every ``every``-th iteration the active plan's
    per-GPU kernel schedules are lowered through the compiled engine
    (:func:`repro.core.codegen.compile_plan`), executed against a fresh
    synthetic batch, and every produced column is compared bit-for-bit
    against the naive golden reference ``execute_graph_set`` on the same
    batch. Compiled programs are cached per plan epoch, so replans and
    membership changes re-lower automatically. A check that finds a
    mismatch is appended to ``history`` and then raises
    :class:`DataVerificationError`.

    With ``workers >= 1`` the check instead drives the multi-core engine
    (:class:`repro.preprocessing.parallel.ParallelEngine`) over the plan's
    whole graph set, cross-checking the sharded shared-memory path
    against naive. Call :meth:`close`
    (the runtime does) to release the engine's worker pool and segments.

    Strictly opt-in and read-only with respect to the simulation: iteration
    numbers are untouched whether or not a verifier is attached.
    """

    def __init__(
        self,
        schema: CriteoSchema,
        every: int = 10,
        seed: int = 2024,
        workers: int = 0,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.schema = schema
        self.every = every
        self.seed = seed
        self.workers = workers
        self.history: list[DataVerification] = []
        self._programs = None
        self._programs_epoch = -1
        self._engine = None
        self._engine_epoch = -1

    def should_run(self, iteration: int) -> bool:
        return iteration % self.every == 0

    def close(self) -> None:
        """Release the parallel engine's workers and shm segments."""
        if self._engine is not None:
            self._engine.close()
            self._engine = None
            self._engine_epoch = -1

    def _parallel_engine(self, plan: RapPlan, plan_epoch: int):
        from ..preprocessing.parallel import ParallelEngine

        if self._engine is None or self._engine_epoch != plan_epoch:
            self.close()
            self._engine = ParallelEngine(plan.graph_set, workers=self.workers)
            self._engine_epoch = plan_epoch
        return self._engine

    def verify(
        self,
        plan: RapPlan,
        plan_epoch: int,
        iteration: int,
        batch: Batch | None = None,
    ) -> DataVerification:
        """Cross-check the plan on ``batch`` (default: a synthesized one).

        Passing a real ingested batch grounds the check in the actual
        stream instead of the generator; its row count must match the
        plan's, since the compiled programs are lowered for a fixed shape.
        """
        rows = plan.graph_set.rows
        if self.workers >= 1:
            engine = self._parallel_engine(plan, plan_epoch)
        elif self._programs is None or self._programs_epoch != plan_epoch:
            self._programs = compile_plan(plan, rows=rows)
            self._programs_epoch = plan_epoch
        if batch is None:
            batch = SyntheticCriteoDataset(self.schema, seed=self.seed).batch(
                rows, index=iteration
            )
        elif batch.size != rows:
            raise ValueError(
                f"ingested batch has {batch.size} rows but the plan was lowered "
                f"for {rows}; align --batch with the source's batch size"
            )
        golden = execute_graph_set(plan.graph_set, batch)
        checked = 0
        mismatched: list[str] = []
        if self.workers >= 1:
            out = engine.execute(batch)
            for graph in plan.graph_set:
                for op in graph.ops:
                    checked += 1
                    if not self._column_matches(op.output, out, golden):
                        mismatched.append(op.output)
        else:
            for program in self._programs.values():
                out = program.execute(batch)
                for step in program.steps:
                    for op in step.members:
                        checked += 1
                        if not self._column_matches(op.output, out, golden):
                            mismatched.append(op.output)
        result = DataVerification(
            iteration=iteration,
            plan_epoch=plan_epoch,
            columns_checked=checked,
            mismatched=tuple(sorted(mismatched)),
        )
        self.history.append(result)
        if not result.ok:
            raise DataVerificationError(
                f"compiled engine diverged from execute_graph_set at iteration "
                f"{iteration} (plan epoch {plan_epoch}) on columns: "
                f"{', '.join(result.mismatched)}"
            )
        return result

    @staticmethod
    def _column_matches(name: str, out, golden) -> bool:
        if name in golden.dense:
            if name not in out.dense:
                return False
            a, b = out.dense[name].values, golden.dense[name].values
            return a.dtype == b.dtype and np.array_equal(a, b)
        if name in golden.sparse:
            if name not in out.sparse:
                return False
            a, b = out.sparse[name], golden.sparse[name]
            return (
                a.hash_size == b.hash_size
                and np.array_equal(a.offsets, b.offsets)
                and a.values.dtype == b.values.dtype
                and np.array_equal(a.values, b.values)
            )
        return False


@dataclass
class KernelRecovery:
    """The full recovery story of one injected kernel fault."""

    event: FaultEvent
    final_rung: str = CO_RUN
    retries: int = 0
    backoff_us: float = 0.0
    wasted_us: float = 0.0
    transitions: list[LadderTransition] = field(default_factory=list)
    cpu_kernels: list[KernelDesc] = field(default_factory=list)

    @property
    def recovery_us(self) -> float:
        return self.backoff_us + self.wasted_us


class _Scaled:
    """One scale's placement and, once telemetry asks, its samples."""

    __slots__ = ("placement", "samples")

    def __init__(self, placement: tuple) -> None:
        self.placement = placement
        self.samples: SampleBatch | None = None


class _InstalledPlan:
    """What the runtime derives from one installed plan, computed lazily.

    Between plan changes the placed kernels are frozen, so the transparent
    path's report, the plan's predicted exposure and every placed kernel's
    sample inputs are fixed, and so are the drifted placement and its
    sample inputs at each scale. Each row set becomes one
    :class:`SampleBatch`; a calibrated predictor's active prices are read
    when the batch is recorded. An instance holds for one
    (plan, planner, predictor) triple, since the base prices come from the
    predictor; the runtime keeps the instances of its recent triples
    (:attr:`FaultTolerantRuntime._installed_plans`).
    """

    def __init__(self, planner: RapPlanner, plan: RapPlan) -> None:
        self.planner = planner
        self.plan = plan
        self.predictor = planner.cost_model.predictor
        # A calibrated predictor's prices move with every recorded sample,
        # so only its base prices are fixed per plan.
        self.calibrated = isinstance(self.predictor, CalibratedPredictor)
        # The recent scales seen by :meth:`scaled`, by (scale, drift factors).
        self._scaled: IdentityMemo[_Scaled] = IdentityMemo()

    @cached_property
    def report(self) -> RapRunReport:
        return self.planner.evaluate(self.plan)

    @cached_property
    def predicted_exposed_us(self) -> float:
        return self.plan.predicted_exposed_us

    @cached_property
    def _base_price(self) -> Callable[[KernelDesc], float]:
        """A kernel's base (uncorrected) price under this plan's predictor."""
        if self.calibrated:
            return self.predictor.base_prediction
        return self.planner.cost_model.kernel_latency

    @cached_property
    def _gpu_rows(self) -> tuple[list[list[tuple]], list[list[tuple]]]:
        """Per GPU, the staged rows (in stage order) and the trailing rows:
        ``(tag, base price, modeled duration, stage, features, kernel)``."""
        price = self._base_price

        def row(kernel: KernelDesc, stage: int) -> tuple:
            features = tuple(kernel_features(kernel))
            return (kernel.tag, price(kernel), kernel.duration_us, stage, features, kernel)

        staged = [
            [row(k, stage) for stage in sorted(per_gpu) for k in per_gpu[stage]]
            for per_gpu in self.plan.assignments_per_gpu
        ]
        trailing = [[row(k, -1) for k in kernels] for kernels in self.plan.trailing_per_gpu]
        return staged, trailing

    @cached_property
    def samples(self) -> SampleBatch:
        """The transparent path's samples: every GPU's staged kernels, then
        every GPU's trailing kernels."""
        staged, trailing = self._gpu_rows
        return self._samples_of([r for rows in staged + trailing for r in rows])

    @staticmethod
    def _samples_of(rows: list[tuple]) -> SampleBatch:
        """One row set's batch of samples, in row order."""
        return SampleBatch(
            CalibrationSample(tag, base, observed_us, -1, stage, features)
            for tag, base, observed_us, stage, features, *_ in rows
        )

    def scaled(
        self, scale: float, drift_factors: dict[str, float], with_samples: bool
    ) -> tuple[tuple, SampleBatch | None]:
        """The placement at uniform ``scale`` and per-op ``drift_factors``
        (:func:`scale_plan_kernels`), and with ``with_samples`` its samples.

        Both are kept for the recent scales, so the containers are shared:
        callers copy what they rewrite. Rows are ``(tag, base price,
        observed duration, stage, features)``: the observation is the
        drifted duration the simulator runs; the price is the drifted
        kernel's, or for an op type with a factor the kernel's at the
        uniform scale (what the cost model knew of the live distribution).
        Drifted copies differ from the planned kernel only in durations,
        which are not features, so they share its features. Row order is
        per GPU, staged then trailing.
        """
        entry = self._scaled.get(
            (),
            (scale, tuple(sorted(drift_factors.items()))),
            lambda: _Scaled(scale_plan_kernels(self.plan, scale, drift_factors)),
        )
        if with_samples and entry.samples is None:
            entry.samples = self._samples_of(
                self._sample_rows(entry.placement, scale, drift_factors)
            )
        return entry.placement, entry.samples

    def _sample_rows(
        self, placement: tuple, scale: float, drift_factors: dict[str, float]
    ) -> list[tuple]:
        assignments, trailing = placement
        staged_rows, trailing_rows = self._gpu_rows
        price = self._base_price
        ran_per_gpu = [
            [k for stage in sorted(per_gpu) for k in per_gpu[stage]] + gpu_trailing
            for per_gpu, gpu_trailing in zip(assignments, trailing)
        ]
        rows = []
        for planned, ran_kernels in zip(
            (s + t for s, t in zip(staged_rows, trailing_rows)), ran_per_gpu, strict=True
        ):
            for (tag, _, _, stage, features, kernel), ran in zip(planned, ran_kernels, strict=True):
                priced = ran if tag not in drift_factors else kernel.drifted(scale)
                rows.append((tag, price(priced), ran.duration_us, stage, features))
        return rows


def _injector_echo(injector) -> dict:
    """The injector identity a checkpoint records: seed and rate specs."""
    return {
        "seed": getattr(injector, "seed", None),
        "specs": [asdict(s) for s in getattr(injector, "specs", ())],
    }


def _check_resumable(
    state: dict,
    workload: TrainingWorkload,
    shrinks: int,
    injector,
    drift_schedule: Sequence[LatencyDrift] | None,
    shadow: ShadowPlanner | None,
) -> None:
    """Refuse to resume under a configuration the checkpoint was not cut for.

    A resumed run replays the uninterrupted one only when the fault seed
    and specs, the batch, the original fleet size, the drift schedule and
    the shadow guardrails all match the killed process. ``workload`` is
    the original (full-fleet) workload and ``shrinks`` the number of GPU
    losses the checkpoint records; a ``drift_schedule`` of ``None`` adopts
    the checkpointed one. An empty or absent spec list, drift schedule or
    shadow state means "none"; an injector or workload echo that a legacy
    checkpoint never wrote is skipped.
    """
    comparisons = []
    if "injector" in state:
        saved, live = state["injector"], _injector_echo(injector)
        comparisons.append(("fault seed", saved.get("seed"), live["seed"]))
        comparisons.append(("fault specs", saved.get("specs", []), live["specs"]))
    saved_workload = state.get("workload", {})
    if "local_batch" in saved_workload:
        comparisons.append(("batch", saved_workload["local_batch"], workload.local_batch))
    if "num_gpus" in saved_workload:
        comparisons.append(
            ("original GPU count", saved_workload["num_gpus"] + shrinks, workload.num_gpus)
        )
    if drift_schedule is not None:
        comparisons.append((
            "drift schedule",
            state.get("drift_schedule", []),
            [d.to_dict() for d in drift_schedule],
        ))
    comparisons.append((
        "shadow config",
        state.get("shadow", {}).get("config"),
        shadow.config.to_dict() if shadow is not None else None,
    ))
    for what, saved, live in comparisons:
        if saved != live:
            raise ValueError(
                f"checkpoint was cut with {what} {_echo_text(saved)}, but the "
                f"resuming run has {_echo_text(live)}"
            )


def _echo_text(value) -> str:
    return "none" if value in (None, []) else json.dumps(value, sort_keys=True)


class FaultTolerantRuntime:
    """Executes plans under injected faults, degrading instead of crashing."""

    def __init__(
        self,
        planner: RapPlanner,
        graph_set: GraphSet,
        plan: RapPlan | None = None,
        injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        watchdog: LatencyWatchdog | None = None,
        pool: CpuWorkerPool | None = None,
        journal: RunJournal | None = None,
        telemetry: TelemetrySession | None = None,
        drift_schedule: Sequence[LatencyDrift] = (),
        verifier: DataPathVerifier | None = None,
        feeder=None,
        shadow: ShadowPlanner | None = None,
        tenant: str | None = None,
    ) -> None:
        # Multi-tenant service runs tag every journal record with the
        # owning tenant; ``None`` (every standalone run) leaves the
        # journal's bytes exactly as before.
        self.tenant = tenant
        self.graph_set = graph_set
        # Derived state of recent inputs, by identity (see .memo): installed
        # plans by (plan, planner, predictor), drifted graph sets by (base
        # graph set, cumulative scale).
        self._installed_plans: IdentityMemo[_InstalledPlan] = IdentityMemo()
        self._drifted_sets: IdentityMemo[GraphSet] = IdentityMemo()
        self._install_plan(plan if plan is not None else planner.plan(graph_set), planner)
        self.injector = injector or FaultInjector()
        self.retry_policy = retry_policy or RetryPolicy()
        self.watchdog = watchdog or LatencyWatchdog()
        self.pool = pool or CpuWorkerPool()
        self.journal = journal
        # Telemetry is strictly opt-in: with ``telemetry=None`` no sample is
        # recorded, no span is emitted, and execution is bit-identical to a
        # build without the subsystem. ``drift_schedule`` injects per-op-type
        # latency drift -- the environment change the calibration loop
        # exists to absorb.
        self.telemetry = telemetry
        # Functional cross-check of the simulated plan against real data;
        # opt-in and read-only with respect to the iteration numbers.
        self.verifier = verifier
        # Optional streaming ingest: a multi-use PipelinedFeeder (or any
        # re-iterable of batches). One batch is pulled per iteration;
        # exhaustion wraps around into a fresh epoch, which leans directly
        # on the feeder's fixed multi-use lifecycle. The feeder is runtime
        # machinery, not run state: it is deliberately absent from
        # state_dict(), and resumed runs just reattach one.
        self.feeder = feeder
        self._feed_iter = None
        self.batches_ingested = 0
        self.ingest_epochs = 0
        # Shadow planning (DESIGN.md §15): with a ShadowPlanner attached,
        # drift/watchdog triggers route into the guarded promotion loop
        # instead of replanning blind; with ``shadow=None`` every code
        # path below is untouched and execution is bit-identical to a
        # build without the subsystem.
        self.shadow = shadow
        self._checkpoints: "CheckpointManager | None" = None
        self.drift_schedule = list(drift_schedule)
        self._calibrated = False
        # Drift of the live distribution relative to the *active* plan's
        # graph set, and cumulatively relative to the base graph set.
        self._scale = 1.0
        self._total_scale = 1.0
        # Kernels persistently evicted to the host pool.
        self._cpu_kernels: list[KernelDesc] = []
        # Elastic-membership state: monotone plan generation counter, the
        # not-yet-charged reshard cost of the latest fleet shrink, the
        # original-fleet identity of each current GPU index, the shrink
        # history, and the terminal everything-on-CPU regime flag.
        self.plan_epoch = 0
        self._pending_recovery_us = 0.0
        self._original_ids = list(range(self.workload.num_gpus))
        self._membership_log: list[MembershipChange] = []
        self._cpu_only = False
        self._cpu_train_us: float | None = None
        # Retry attempts charged against the current plan epoch (only
        # consulted when the policy sets a per-epoch budget).
        self._epoch_retry_used = 0
        # Service preemption: while True every placed kernel lives on the
        # host pool and watchdog/drift triggers may not replan (a replan
        # would hand back GPU capacity the service revoked). Cleared by
        # adopt_plan() when the service restores the tenant.
        self._preempted = False

    @property
    def workload(self):
        return self.planner.workload

    @property
    def cpu_evicted(self) -> list[KernelDesc]:
        return list(self._cpu_kernels)

    @property
    def cpu_only(self) -> bool:
        return self._cpu_only

    def _journal(self, record_type: str, **fields) -> None:
        if self.journal is not None:
            if self.tenant is not None:
                fields.setdefault("tenant", self.tenant)
            self.journal.append(record_type, **fields)

    def _install_plan(self, plan: RapPlan, planner: RapPlanner | None = None) -> None:
        """The one seam through which the live plan (and planner) change.

        Every swap -- construction, replan, adoption, eviction, promotion,
        rollback, membership change, restore -- lands here. What the
        runtime derived from a plan stays valid while the plan, its planner
        and the planner's predictor do, so a replan memo hit that hands
        back a recent plan object reinstalls what was derived from it.
        """
        if planner is not None:
            self.planner = planner
        self.plan = plan
        self._installed()

    def _installed(self) -> _InstalledPlan:
        """The live plan's derived data for the planner's current predictor."""
        planner, plan = self.planner, self.plan
        return self._installed_plans.get(
            (plan, planner, planner.cost_model.predictor),
            (),
            lambda: _InstalledPlan(planner, plan),
        )

    def _begin_epoch(
        self,
        iteration: int,
        reason: str,
        plan: RapPlan,
        planner: RapPlanner | None = None,
        *,
        scale: float = 1.0,
        cpu_kernels: list[KernelDesc] | None = None,
    ) -> None:
        """The one plan-epoch transition: every plan change after
        construction except restore and the loss of the last GPU.

        Installs ``plan``, sets the drift scale relative to it and the
        kernels evicted to the host pool, restarts the watchdog window and
        the epoch's retry budget, and notes the replan. Callers journal
        their own record.
        """
        self._install_plan(plan, planner)
        self._scale = scale
        self._cpu_kernels = list(cpu_kernels) if cpu_kernels else []
        self.watchdog.reset()
        self.plan_epoch += 1
        self._epoch_retry_used = 0
        if self.telemetry is not None:
            self.telemetry.note_replan(iteration, reason, self.plan_epoch)

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def run(
        self,
        num_iterations: int,
        start_iteration: int = 0,
        *,
        report: ResilienceReport | None = None,
        checkpoints: "CheckpointManager | None" = None,
        checkpoint_every: int = 0,
        kill_after: int | None = None,
    ) -> ResilienceReport:
        """Execute ``num_iterations`` iterations, accumulating the report.

        ``report`` continues an existing (restored) report in place.
        With ``checkpoints`` and ``checkpoint_every > 0``, a manifest-sealed
        checkpoint lands after every N-th completed iteration (counted from
        iteration 0, so resumed runs keep the original cadence).
        ``kill_after=k`` raises :class:`SimulatedKill` once iteration
        ``k-1`` completes -- after journaling, before checkpointing -- to
        emulate a crash for resume tests.
        """
        if num_iterations < 1:
            raise ValueError("num_iterations must be >= 1")
        if report is None:
            report = ResilienceReport()
        run_fields: dict = {
            "start_iteration": start_iteration,
            "num_iterations": num_iterations,
        }
        schedule = getattr(self.injector, "schedule", None)
        if isinstance(schedule, (list, tuple)) and schedule:
            # The correlated pre-drawn events are part of the run's identity:
            # journaling them up front makes the journal alone sufficient to
            # replay the run (rate-drawn faults replay from the seed echo in
            # the checkpoint). Only emitted when a schedule is live, so
            # legacy journals keep their exact bytes. Duck-typed injectors
            # (tests script faults with a dict keyed by iteration) are left
            # out of the journal -- their schedule is not a FaultEvent list.
            run_fields["fault_schedule"] = [e.to_dict() for e in schedule]
        self._journal("run", **run_fields)
        self._checkpoints = checkpoints
        if self.shadow is not None and checkpoints is not None and self.shadow.in_probation:
            # Pins are in-memory; a process resumed mid-probation must
            # re-assert the anchor's pin before the first cadence
            # checkpoint can prune it.
            anchor = self.shadow.anchor
            if anchor and anchor.get("directory"):
                checkpoints.pin(anchor["directory"])
        for i in range(start_iteration, start_iteration + num_iterations):
            batch = self._next_batch() if self.feeder is not None else None
            before_membership = len(self._membership_log)
            record, faults, transitions = self.run_iteration(i)
            if self.verifier is not None and self.verifier.should_run(i):
                try:
                    self.verifier.verify(self.plan, self.plan_epoch, i, batch=batch)
                finally:
                    # verify() appends to history before it raises,
                    # so the journal records the divergence either way.
                    if self.verifier.history:
                        self._journal(
                            "data_verify", **self.verifier.history[-1].to_dict()
                        )
            if self.shadow is not None and not self._cpu_only:
                record = self._shadow_step(i, record, report)
            report.iterations.append(record)
            report.faults.extend(faults)
            report.transitions.extend(transitions)
            report.retries += record.retries
            report.backoff_total_us += record.backoff_us
            report.replans += int(record.replanned)
            report.membership_changes.extend(self._membership_log[before_membership:])
            for t in transitions:
                self._journal("transition", **t.to_dict())
            if kill_after is not None and i + 1 >= kill_after:
                self._journal("kill", iteration=i)
                raise SimulatedKill(i)
            if checkpoints is not None and checkpoint_every > 0 and (i + 1) % checkpoint_every == 0:
                self.save_checkpoint(checkpoints, report, i + 1)
        if self.telemetry is not None:
            self.telemetry.flush(step=start_iteration + num_iterations)
            if self._calibrated and self.journal is not None:
                # The settled before/after view: by run end the residual
                # windows are dominated by the live regime, unlike the
                # mid-run snapshot in each "recalibrate" record. Both MAPEs
                # walk every windowed sample, so they are computed only
                # when a journal will keep them.
                self._journal(
                    "calibration_summary",
                    mape_raw=round(self.telemetry.predictor_mape, 6),
                    mape_calibrated=round(self.telemetry.calibrated_mape, 6),
                    drift_events=len(self.telemetry.drift_events),
                )
        return report

    def _next_batch(self) -> Batch:
        """Pull one batch from the attached feeder, wrapping at epoch end.

        Exhaustion re-iterates the feeder (a fresh lease with a fresh
        pool); a feeder that yields nothing at all on a fresh iteration is
        a configuration error, not an infinite loop.
        """
        if self._feed_iter is None:
            self._feed_iter = iter(self.feeder)
            self.ingest_epochs += 1
        try:
            batch = next(self._feed_iter)
        except StopIteration:
            self._feed_iter = iter(self.feeder)
            self.ingest_epochs += 1
            try:
                batch = next(self._feed_iter)
            except StopIteration:
                raise RuntimeError(
                    "ingest feeder produced no batches on a fresh iteration; "
                    "the source is empty"
                ) from None
        self.batches_ingested += 1
        return batch

    def run_iteration(
        self, iteration: int
    ) -> tuple[IterationRecord, list[FaultEvent], list[LadderTransition]]:
        """Execute one iteration under whatever faults the injector draws."""
        epoch = self.plan_epoch
        if self._cpu_only:
            # Terminal regime: the fleet is gone and everything paces
            # through the host pool. The injector is skipped -- its GPU
            # fault classes have no target -- which is safe for resume
            # determinism because per-iteration streams are independent.
            return self._run_cpu_only(iteration, epoch), [], []

        faults = self.injector.faults_for_iteration(iteration, self.plan)
        lost = [e for e in faults if e.kind == GPU_LOST]
        rest = [e for e in faults if e.kind != GPU_LOST]

        if lost:
            membership_transitions: list[LadderTransition] = []
            for event in lost:
                membership_transitions.extend(self._lose_gpu(iteration, event))
            if self._cpu_only:
                record = self._run_cpu_only(iteration, epoch, num_faults=len(faults))
                return record, faults, membership_transitions
            record, _, transitions = self._run_degraded(
                iteration,
                rest,
                total_faults=len(faults),
                epoch=epoch,
                force_replanned=True,
            )
            return record, faults, membership_transitions + transitions

        if (
            not faults
            and self._scale == 1.0
            and not self._cpu_kernels
            and self._pending_recovery_us == 0.0
            and not drift_factors_at(self.drift_schedule, iteration)
        ):
            # Transparent path: nothing failed, nothing drifted, nothing
            # evicted -- defer to the planner's own evaluation so the
            # wrapped numbers are bit-identical to direct execution. The
            # evaluation is a pure function of the installed plan, so it
            # runs once per plan, not once per iteration.
            installed = self._installed()
            report = installed.report
            if self.telemetry is not None:
                # Recording is read-only: each placed kernel contributes its
                # (predicted, observed) pair, where the observation is the
                # plan's own modeled duration -- no number changes.
                self._record_samples(installed, installed.samples, iteration)
                self.telemetry.record_iteration(
                    iteration,
                    report.iteration_us,
                    report.exposed_preprocessing_us,
                    per_gpu_results=report.cluster_result.per_gpu,
                    plan_epoch=epoch,
                )
            replanned = self._route_triggers(iteration, report.exposed_preprocessing_us, 0)
            record = IterationRecord(
                iteration=iteration,
                iteration_us=report.iteration_us,
                exposed_us=report.exposed_preprocessing_us,
                replanned=replanned,
                plan_epoch=epoch,
            )
            return record, [], []

        return self._run_degraded(iteration, faults, epoch=epoch)

    # ------------------------------------------------------------------
    # Degraded execution
    # ------------------------------------------------------------------

    def _run_degraded(
        self,
        iteration: int,
        faults: list[FaultEvent],
        *,
        epoch: int,
        total_faults: int | None = None,
        force_replanned: bool = False,
    ) -> tuple[IterationRecord, list[FaultEvent], list[LadderTransition]]:
        # A membership change earlier in this iteration leaves its priced
        # redistribution here; under the bulk-synchronous barrier it extends
        # every survivor equally, so it adds to the iteration as a constant.
        reshard_us = self._pending_recovery_us
        self._pending_recovery_us = 0.0
        num_gpus = self.workload.num_gpus
        transitions: list[LadderTransition] = []
        pool_restart_us = 0.0
        pool_fraction = 1.0

        # Environment faults first: they shape the iteration every kernel
        # fault then lands in.
        for event in faults:
            if event.kind == PLAN_DRIFT:
                self._scale *= event.magnitude
                self._total_scale *= event.magnitude
            elif event.kind == CPU_POOL_CRASH:
                pool_restart_us += event.magnitude * POOL_RESTART_BASE_US
                pool_fraction = min(pool_fraction, 0.5)

        # Uniform drift and injected per-op-type drift, then calibration
        # sampling, before fault recovery mutates the placement: the sample
        # stream reflects what the kernels *would* run at, undistorted by
        # this iteration's fault handling.
        installed = self._installed()
        (scaled_assignments, scaled_trailing), samples = installed.scaled(
            self._scale,
            drift_factors_at(self.drift_schedule, iteration),
            self.telemetry is not None,
        )
        # The cached containers are shared: recovery rewrites a GPU's only
        # after copying them, on the first kernel fault that lands there.
        assignments = list(scaled_assignments)
        trailing = list(scaled_trailing)
        if self.telemetry is not None:
            self._record_samples(installed, samples, iteration)
        recovery = [0.0] * num_gpus
        retries = 0
        backoff_us = 0.0
        faults_per_gpu = [0] * num_gpus

        for event in faults:
            if event.kind not in (KERNEL_FAILURE, LATENCY_OVERRUN, FUSED_OOM):
                continue
            if not 0 <= event.gpu < num_gpus:
                continue
            gpu = event.gpu
            if not faults_per_gpu[gpu]:
                assignments[gpu] = {stage: list(ks) for stage, ks in assignments[gpu].items()}
                trailing[gpu] = list(trailing[gpu])
            faults_per_gpu[gpu] += 1
            rec = self._recover_kernel(event, assignments[gpu], trailing[gpu])
            retries += rec.retries
            backoff_us += rec.backoff_us
            recovery[gpu] += rec.recovery_us
            transitions.extend(rec.transitions)
            self._cpu_kernels.extend(rec.cpu_kernels)

        # Sequential fallback: a GPU absorbing too many kernel faults in a
        # single iteration abandons co-running entirely for that iteration
        # -- every remaining placed kernel runs exposed, where it cannot
        # perturb training.
        for gpu in range(num_gpus):
            if faults_per_gpu[gpu] < SEQUENTIAL_FAULT_THRESHOLD:
                continue
            demoted = [k for stage in sorted(assignments[gpu]) for k in assignments[gpu][stage]]
            if not demoted:
                continue
            assignments[gpu] = {}
            trailing[gpu] = demoted + trailing[gpu]
            transitions.append(
                LadderTransition(
                    iteration=iteration,
                    gpu=gpu,
                    kernel="*",
                    from_rung=CO_RUN,
                    to_rung=SEQUENTIAL,
                    reason=f"{faults_per_gpu[gpu]} faults in one iteration; "
                    "co-running suspended for safety",
                )
            )

        result = self.workload.simulate(
            assignments_per_gpu=assignments,
            trailing_per_gpu=trailing,
            input_comm_bytes=self.plan.input_comm_bytes,
            input_comm_transfers=max(1, self.plan.input_comm_transfers),
            recovery_us_per_gpu=recovery,
        )
        prep = max(
            self.plan.data_prep_per_gpu,
            key=lambda p: p.total_us,
            default=DataPreparation(0.0, 0.0, 0.0),
        )
        timeline = self.planner.interleaver.steady_state(result.iteration_time_us, prep)

        pool = degraded_pool(self.pool, pool_fraction) if pool_fraction < 1.0 else self.pool
        cpu_us = cpu_fallback_production_us(pool, self._cpu_kernels, num_gpus) + pool_restart_us
        exposed_us = result.max_exposed_preprocessing_us + result.max_recovery_us

        # The watchdog judges the plan against what the plan could predict:
        # kernel-level exposure, not the one-shot reshard constant (the
        # membership change already replanned and reset the window).
        replanned = self._route_triggers(iteration, exposed_us, len(faults))

        iteration_us = max(timeline.iteration_us, cpu_us) + reshard_us
        exposed_us += reshard_us

        if self.telemetry is not None:
            self.telemetry.record_iteration(
                iteration,
                iteration_us,
                exposed_us,
                per_gpu_results=result.per_gpu,
                plan_epoch=epoch,
                num_faults=total_faults if total_faults is not None else len(faults),
            )

        record = IterationRecord(
            iteration=iteration,
            iteration_us=iteration_us,
            exposed_us=exposed_us,
            num_faults=total_faults if total_faults is not None else len(faults),
            retries=retries,
            backoff_us=backoff_us,
            recovery_us=sum(recovery) + reshard_us,
            cpu_fallback_us=cpu_us,
            replanned=replanned or force_replanned,
            plan_epoch=epoch,
        )
        return record, faults, transitions

    def _route_triggers(self, iteration: int, exposed_us: float, num_faults: int) -> bool:
        """Judge the iteration's two replan triggers and act on the winner.

        Checks the drift detector, then feeds the watchdog. Sustained model
        error beats the exposure watchdog: a plain replan would reuse the
        stale predictions, so drift recalibrates first and replans once
        with the corrected model. With a shadow planner attached both
        triggers feed the guarded promotion loop instead, which evaluates a
        candidate at this iteration's shadow step rather than swapping
        plans blind. A preempted tenant holds no carve, so neither trigger
        may replan it back onto the GPUs (the service restores capacity
        through :meth:`adopt_plan`). Returns whether the plan changed.
        """
        drift_event = (
            self.telemetry.check_drift(iteration) if self.telemetry is not None else None
        )
        decision = self.watchdog.observe(
            self._installed().predicted_exposed_us, exposed_us, num_faults
        )
        if self._preempted:
            return False
        if self.shadow is not None:
            if drift_event is not None:
                self.shadow.note_trigger(iteration, "drift")
            elif decision.replan:
                self.shadow.note_trigger(iteration, "watchdog")
            return False
        if drift_event is not None:
            self._recalibrate_and_replan(iteration, drift_event)
            return True
        if decision.replan:
            self._replan(iteration)
            return True
        return False

    def _replan(self, iteration: int = -1, reason: str = "watchdog") -> None:
        """Regenerate the plan for the live (possibly drifted) distribution.

        Goes through the planner's fast path: a replan whose live graph set,
        active plan and predictor repeat a recent replan's is served from
        the planner's replan memo (the same plan object, so the installed
        plan's derived data survives too), and uniform drift (which
        rescales latencies but not graph structure) re-plans incrementally
        from the active plan's mapping instead of re-running the full
        search.
        """
        self._begin_epoch(
            iteration, reason, self.planner.replan(self._live_graph_set(), previous=self.plan)
        )
        self._journal_replan(iteration, reason)

    def _journal_replan(self, iteration: int, reason: str) -> None:
        self._journal(
            "replan",
            iteration=iteration,
            reason=reason,
            plan_epoch=self.plan_epoch,
            num_gpus=self.workload.num_gpus,
        )

    # ------------------------------------------------------------------
    # Service control plane (multi-tenant carve changes)
    # ------------------------------------------------------------------

    def adopt_plan(
        self,
        planner: RapPlanner,
        plan: RapPlan,
        iteration: int = -1,
        reason: str = "carve",
    ) -> None:
        """Swap in an externally planned (planner, plan) pair.

        The preprocessing service re-prices a tenant whenever its capacity
        carve changes (another tenant arrived, finished, or was preempted)
        and hands the result here. Semantically a replan: the epoch
        advances, drift scale and evicted kernels reset, and the watchdog
        window restarts against the new plan's predictions. Also the
        restore path out of :meth:`evict_to_cpu`.
        """
        self._preempted = False
        self._begin_epoch(iteration, reason, plan, planner)
        self._journal_replan(iteration, reason)

    def evict_to_cpu(self, iteration: int = -1, reason: str = "preempted") -> None:
        """Demote every placed kernel to the host pool (service preemption).

        The tenant keeps making progress -- preprocessing paces through
        :func:`cpu_fallback_production_us` while training stays on its
        GPUs -- but holds zero carved GPU capacity until the service
        restores it through :meth:`adopt_plan`. Watchdog and drift replans
        are suppressed for the duration; they would otherwise claw back
        the revoked capacity.
        """
        demoted = self.plan.placed_kernels()
        self._preempted = True
        self._begin_epoch(
            iteration,
            reason,
            replace(
                self.plan,
                assignments_per_gpu=[{} for _ in range(self.workload.num_gpus)],
                trailing_per_gpu=[[] for _ in range(self.workload.num_gpus)],
            ),
            cpu_kernels=self._cpu_kernels + demoted,
        )
        self._journal(
            "evict",
            iteration=iteration,
            reason=reason,
            plan_epoch=self.plan_epoch,
            kernels=len(demoted),
        )

    # ------------------------------------------------------------------
    # Online calibration
    # ------------------------------------------------------------------

    def _record_samples(
        self, installed: _InstalledPlan, samples: SampleBatch, iteration: int
    ) -> None:
        """Record one sample per placed kernel (:attr:`_InstalledPlan.samples`
        on the transparent path, :meth:`_InstalledPlan.scaled` otherwise).

        On the transparent path the observation is the plan's own modeled
        duration, so recording is read-only. The base (uncorrected)
        prediction feeds the residual model -- it must stay a stable
        reference or the correction chases its own output. The active
        prediction is what the drift detector judges: uncalibrated it is the
        base price; calibrated it moves with every recorded sample, so the
        session's residual model -- the one the plan's predictor corrects
        with -- prices each sample as it records it.
        """
        if installed.calibrated:
            assert installed.predictor.residual is self.telemetry.residual
        self.telemetry.record_batch(samples, iteration, calibrated=installed.calibrated)

    def _recalibrate_and_replan(self, iteration: int, event: DriftEvent) -> None:
        """Answer a drift detection: inject the calibrated predictor, replan.

        The planner's mapper, scheduler, and watchdog all read latencies
        through the shared cost model, so swapping its predictor re-prices
        the entire search space in one move. The calibrated predictor also
        changes the planner's cache fingerprint, so the replan cannot hit
        the stale pre-drift cache entry.
        """
        self._adopt_calibrated(
            self.telemetry.calibrated_predictor(self.planner.cost_model.predictor)
        )
        if self.journal is not None:
            self._journal(
                "recalibrate",
                iteration=iteration,
                op_type=event.worst_op_type,
                mean_residual=round(event.mean_residual, 6),
                worst_residual=round(event.worst_residual, 6),
                mape_before=round(self.telemetry.predictor_mape, 6),
                mape_after=round(self.telemetry.calibrated_mape, 6),
                corrections={
                    op: round(c, 6)
                    for op, c in self.telemetry.residual.corrections().items()
                },
            )
        self._replan(iteration, reason="drift")

    def _adopt_calibrated(self, predictor: CalibratedPredictor) -> None:
        """Hand the planner a calibrated predictor and publish its corrections.

        The drift detector starts a fresh window against the corrected
        model: if the correction only partially absorbed the drift (early
        windows mix pre- and post-drift samples), the detector re-fires
        after another sustained breach and calibration converges
        iteratively.
        """
        self.planner.set_predictor(predictor)
        self._calibrated = True
        self.telemetry.publish_corrections()
        self.telemetry.drift_detector.reset()

    # ------------------------------------------------------------------
    # Shadow planning: guarded promotion, probation, automatic rollback
    # ------------------------------------------------------------------

    def _shadow_step(
        self, iteration: int, record: IterationRecord, report: ResilienceReport
    ) -> IterationRecord:
        """One tick of the shadow control loop, after the live iteration.

        Feeds the iteration's conditions and outcome into the replay
        window, drives the probation monitor (rollback / commit), and --
        when the pacing asks for it -- searches and scores a candidate,
        promoting transactionally if the guardrail clears. Returns the
        iteration record, re-marked ``replanned`` when a swap happened.
        """
        obs = ShadowObservation(
            iteration=iteration,
            plan_epoch=self.plan_epoch,
            scale=self._scale,
            drift_factors=drift_factors_at(self.drift_schedule, iteration),
            exposed_us=float(record.exposed_us),
            iteration_us=float(record.iteration_us),
        )
        action = self.shadow.observe(obs)
        if action in (PROBATION_ROLLED_BACK, PROBATION_COMMITTED):
            self._end_probation(iteration, action)
            if action == PROBATION_ROLLED_BACK:
                return replace(record, replanned=True)
            return record
        if self.shadow.wants_candidate(iteration, self.plan_epoch):
            if self._shadow_evaluate(iteration, report):
                return replace(record, replanned=True)
        return record

    def _shadow_evaluate(self, iteration: int, report: ResilienceReport) -> bool:
        """Search a candidate, score it over the window, maybe promote.

        The candidate is searched by a planner clone (shared plan cache)
        priced with the *current* calibrated costs -- continuous
        calibration, not waiting for the drift edge -- then both the live
        plan and the candidate are re-simulated under each recorded
        window entry's exact conditions (uniform scale + per-op drift).
        Returns True when a promotion happened.
        """
        entries = self.shadow.window_for_epoch(self.plan_epoch)
        reason = self.shadow.pending_trigger or "cadence"
        live = self._live_graph_set()
        shadow_planner = clone_planner(self.planner, self.workload)
        if self.telemetry is not None:
            shadow_planner.set_predictor(
                self.telemetry.calibrated_predictor(self.planner.cost_model.predictor)
            )
        candidate = shadow_planner.replan(live, previous=self.plan)
        base_exposed: list[float] = []
        cand_exposed: list[float] = []
        cand_iter: list[float] = []
        for entry in entries:
            base = self.planner.evaluate_scaled(
                self.plan, scale=entry.scale, drift_factors=entry.drift_factors
            )
            # The candidate was searched at today's total drift; an older
            # entry's conditions reach it as the *relative* scale between
            # that entry's distribution and the current one.
            relative = entry.scale / self._scale
            cand = shadow_planner.evaluate_scaled(
                candidate, scale=relative, drift_factors=entry.drift_factors
            )
            base_exposed.append(float(base.exposed_preprocessing_us))
            cand_exposed.append(float(cand.exposed_preprocessing_us))
            cand_iter.append(float(cand.iteration_us))
        baseline_us = sum(base_exposed) / len(base_exposed)
        candidate_us = sum(cand_exposed) / len(cand_exposed)
        verdict = self.shadow.judge(iteration, baseline_us, candidate_us, reason)
        self._journal("shadow_eval", **verdict.to_dict())
        if self.telemetry is not None:
            self.telemetry.note_shadow_candidate(verdict.predicted_win, verdict.promote)
        if not verdict.promote:
            return False

        # -- transactional promotion -----------------------------------
        # 1. Seal the rollback anchor (pre-swap state) and pin it so no
        #    cadence checkpoint can prune it while probation is open. The
        #    full anchor payload also rides in shadow state, so rollback
        #    works even without a checkpoint manager attached.
        plan_text = plan_to_json(self.plan)
        anchor = {
            "iteration": iteration,
            "plan_epoch": self.plan_epoch,
            "plan": plan_text,
            "scale": self._scale,
            "total_scale": self._total_scale,
            "cpu_kernels": [kernel_to_dict(k) for k in self._cpu_kernels],
            "directory": None,
        }
        if self._checkpoints is not None:
            path = self._checkpoints.save(
                iteration + 1, self.state_dict(), plan_text, report.to_dict(),
                tag="anchor",
            )
            self._checkpoints.pin(path)
            anchor["directory"] = path.name
        from_epoch = self.plan_epoch
        baseline_iter_us = sum(e.iteration_us for e in entries) / len(entries)
        predicted_exposed_us = candidate_us
        predicted_iter_us = sum(cand_iter) / len(cand_iter)
        # 2. Journal the promotion *before* the swap: a crash between the
        #    two leaves an open promotion the resumed run re-journals
        #    deterministically.
        self._journal(
            "promotion",
            iteration=iteration,
            reason=verdict.reason,
            plan_epoch=from_epoch + 1,
            from_epoch=from_epoch,
            predicted_win=round(verdict.predicted_win, 6),
            required_win=round(verdict.required_win, 6),
            baseline_exposed_us=round(baseline_us, 3),
            candidate_exposed_us=round(candidate_us, 3),
            anchor=anchor["directory"],
        )
        # 3. Swap: the calibrated predictor hand-off, then the epoch
        #    transition.
        if self.telemetry is not None:
            self._adopt_calibrated(shadow_planner.cost_model.predictor)
        self._begin_epoch(iteration, "promotion", candidate)
        # 4. Enter probation with the watchdog suppressed: the probation
        #    monitor owns the only rollback trigger until it settles.
        self.watchdog.suppress()
        self.shadow.begin_probation(
            iteration,
            verdict,
            predicted_exposed_us=predicted_exposed_us,
            predicted_iteration_us=predicted_iter_us,
            baseline_iteration_us=baseline_iter_us,
            from_epoch=from_epoch,
            to_epoch=self.plan_epoch,
            anchor=anchor,
        )
        return True

    def _end_probation(self, iteration: int, outcome: str, abort_reason: str = "") -> None:
        """Close the open probation with ``outcome`` and journal the result.

        - Rolled back: probation breached, so the anchor state is restored
          transactionally.
        - Committed: the promotion becomes the plan of record, and the
          watchdog window restarts against it.
        - Aborted (``abort_reason`` says why): a membership change voided
          the comparison -- the anchor plan was searched for a fleet that
          no longer exists -- so neither keeping probation open nor
          rolling back is meaningful.

        Every outcome lifts the watchdog's suppression and unpins the anchor.
        """
        summary = self.shadow.finish_probation(outcome, iteration)
        anchor = summary["anchor"]
        if outcome == PROBATION_ABORTED:
            summary["abort_reason"] = abort_reason
        elif outcome == PROBATION_COMMITTED:
            self.watchdog.reset()
        elif outcome == PROBATION_ROLLED_BACK:
            plan_text = anchor["plan"]
            if anchor.get("directory") and self._checkpoints is not None:
                from .checkpoint import CheckpointError

                try:
                    snapshot = self._checkpoints.load(
                        self._checkpoints.directory / anchor["directory"]
                    )
                    plan_text = snapshot.plan_text
                except CheckpointError:
                    pass  # fall back to the in-memory copy (identical bytes)
            anchor_total = float(anchor.get("total_scale", 1.0)) or 1.0
            # Drift that arrived *during* probation composes onto the
            # anchor's relative scale, so the restored plan sees today's
            # distribution. The epoch stays monotone -- a rollback is a new
            # plan generation, never a rewind -- which keeps journal
            # validation simple.
            self._begin_epoch(
                iteration,
                "rollback",
                plan_from_json(plan_text, self.workload, self.graph_set),
                scale=float(anchor.get("scale", 1.0)) * (self._total_scale / anchor_total),
                cpu_kernels=[kernel_from_dict(k) for k in anchor.get("cpu_kernels", [])],
            )
        self.watchdog.unsuppress()
        if self.telemetry is not None:
            self.telemetry.note_shadow_probation(
                outcome, summary.get("realized_win"), summary.get("predicted_win")
            )
        fields = {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in summary.items()
            if key != "anchor"
        }
        fields["anchor"] = anchor.get("directory")
        fields["plan_epoch"] = self.plan_epoch
        self._journal("promotion_result", **fields)
        if anchor.get("directory") and self._checkpoints is not None:
            self._checkpoints.unpin(anchor["directory"])

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------

    def _live_graph_set(self) -> GraphSet:
        """The base graph set under the cumulative drift, built once per
        recent (base, scale) so repeated replans hand the planner the same
        object and its fingerprints stay memoized."""
        if self._total_scale == 1.0:
            return self.graph_set
        base, scale = self.graph_set, self._total_scale
        return self._drifted_sets.get((base,), (scale,), lambda: drift_graph_set(base, scale))

    def _lose_gpu(self, iteration: int, event: FaultEvent) -> list[LadderTransition]:
        """Shrink the fleet after a terminal device loss.

        For ``N > 1`` survivors: re-shard the dead GPU's embedding tables,
        clone the planner onto the survivor workload, and replan warm from
        the surviving slice of the old mapping. For the last GPU: evict
        every placed kernel to the host pool and enter the CPU-only regime.
        Either way the redistribution is priced into this iteration via
        ``_pending_recovery_us``.
        """
        num_gpus = self.workload.num_gpus
        gpu = event.gpu
        if not 0 <= gpu < num_gpus:
            return []  # stale event against an already-shrunk fleet
        if self.shadow is not None and self.shadow.in_probation:
            # A membership change voids the probation baseline: the anchor
            # plan was searched for a fleet that no longer exists.
            self._end_probation(iteration, PROBATION_ABORTED, "membership change")
        original = self._original_ids[gpu]
        spec = self.workload.spec

        if num_gpus == 1:
            # Last device: the whole pipeline falls off the fleet. All
            # embedding state moves to host memory and every placed kernel
            # is evicted to the worker pool.
            self._cpu_kernels.extend(self.plan.placed_kernels())
            moved_bytes = sum(t.nbytes for t in self.workload.config.tables)
            moved_tables = tuple(t.name for t in self.workload.config.tables)
            survivors = 0
            self._cpu_only = True
            self._cpu_train_us = None
            self.plan_epoch += 1
            self._epoch_retry_used = 0
        else:
            survivor_workload, moved_tables, moved_bytes = self.workload.shrunk(gpu)
            live = self._live_graph_set()
            warm = surviving_mapping(self.plan, gpu, survivor_workload, live)
            planner = clone_planner(self.planner, survivor_workload)
            self._begin_epoch(
                iteration,
                "membership",
                planner.replan(live, previous=self.plan, initial_mapping=warm),
                planner,
            )
            survivors = survivor_workload.num_gpus
        self._original_ids.pop(gpu)
        reshard_us = reshard_cost_us(moved_bytes, spec)
        self._pending_recovery_us += reshard_us
        change = MembershipChange(
            iteration=iteration,
            lost_gpu=gpu,
            lost_gpu_original=original,
            survivors=survivors,
            moved_tables=moved_tables,
            moved_bytes=moved_bytes,
            reshard_us=reshard_us,
            plan_epoch=self.plan_epoch,
        )
        self._membership_log.append(change)
        self._journal("membership", **change.to_dict())
        if survivors:
            return []
        return [
            LadderTransition(
                iteration=iteration,
                gpu=gpu,
                kernel="*",
                from_rung=CO_RUN,
                to_rung=CPU_FALLBACK,
                reason="last GPU lost; pipeline evicted to host pool",
            )
        ]

    def _run_cpu_only(
        self, iteration: int, epoch: int, num_faults: int = 0
    ) -> IterationRecord:
        """One iteration of the terminal everything-on-CPU regime."""
        pending = self._pending_recovery_us
        self._pending_recovery_us = 0.0
        if self._cpu_train_us is None:
            # Model-training compute relocated to the host: the standalone
            # iteration of the last surviving shape, scaled by the measured
            # GPU-to-CPU throughput gap.
            self._cpu_train_us = self.workload.ideal_iteration_us() * GPU_TO_CPU_SLOWDOWN
        cpu_us = cpu_fallback_production_us(self.pool, self._cpu_kernels, 1)
        if self.telemetry is not None:
            self.telemetry.record_iteration(
                iteration,
                self._cpu_train_us + cpu_us + pending,
                cpu_us + pending,
                plan_epoch=epoch,
                regime="cpu-only",
            )
        return IterationRecord(
            iteration=iteration,
            iteration_us=self._cpu_train_us + cpu_us + pending,
            exposed_us=cpu_us + pending,
            num_faults=num_faults,
            recovery_us=pending,
            cpu_fallback_us=cpu_us,
            plan_epoch=epoch,
        )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Everything mutable the runtime needs to resume bit-identically.

        The plan itself rides alongside as its exact serialized text (see
        :meth:`save_checkpoint`); this dict carries the control state plus
        echoes of the injector and workload shape, which :meth:`restore`
        compares so a mismatched configuration is refused instead of
        silently diverging.
        """
        state = {
            "plan_epoch": self.plan_epoch,
            "scale": self._scale,
            "total_scale": self._total_scale,
            "cpu_only": self._cpu_only,
            "pending_recovery_us": self._pending_recovery_us,
            "cpu_kernels": [kernel_to_dict(k) for k in self._cpu_kernels],
            "membership": [m.to_dict() for m in self._membership_log],
            "original_ids": list(self._original_ids),
            "watchdog": self.watchdog.state_dict(),
            "injector": _injector_echo(self.injector),
            "workload": {
                "model": self.workload.config.name,
                "num_gpus": self.workload.num_gpus,
                "local_batch": self.workload.local_batch,
                "fleet": list(self.workload.fleet_profile),
            },
        }
        # The optional extensions below ride in the snapshot only when
        # their feature is live, keeping legacy checkpoints byte-stable.
        schedule = getattr(self.injector, "schedule", None)
        if isinstance(schedule, (list, tuple)) and schedule:
            state["injector"]["schedule"] = [e.to_dict() for e in schedule]
        if self.retry_policy.retry_budget_per_epoch > 0:
            state["epoch_retry_used"] = self._epoch_retry_used
        if self._preempted:
            state["preempted"] = True
        if self.drift_schedule:
            state["drift_schedule"] = [d.to_dict() for d in self.drift_schedule]
        if self.telemetry is not None:
            state["calibration"] = {
                "telemetry": self.telemetry.state_dict(),
                "calibrated": self._calibrated,
            }
        if self.shadow is not None:
            state["shadow"] = self.shadow.state_dict()
        return state

    def save_checkpoint(
        self,
        manager: "CheckpointManager",
        report: ResilienceReport,
        next_iteration: int,
    ):
        """Write one iteration-consistent checkpoint via ``manager``."""
        path = manager.save(
            next_iteration,
            self.state_dict(),
            plan_to_json(self.plan),
            report.to_dict(),
        )
        self._journal("checkpoint", iteration=next_iteration, path=str(path))
        return path

    @classmethod
    def restore(
        cls,
        snapshot: "Snapshot",
        graph_set: GraphSet,
        workload: TrainingWorkload,
        make_planner: Callable[[TrainingWorkload], RapPlanner],
        *,
        telemetry: TelemetrySession | None = None,
        drift_schedule: Sequence[LatencyDrift] | None = None,
        shadow: ShadowPlanner | None = None,
        **options,
    ) -> tuple["FaultTolerantRuntime", ResilienceReport, int]:
        """Rebuild a runtime from a checkpoint :class:`Snapshot`.

        ``workload`` is the *original* (full-fleet) workload; the snapshot's
        membership history is replayed over it so the restored fleet shape,
        embedding placement, and interconnect match the killed process
        exactly. ``drift_schedule`` defaults to the checkpointed one, and
        ``options`` are the constructor's other keyword arguments. Returns
        ``(runtime, report, next_iteration)``; continuing with
        ``runtime.run(..., start_iteration=next_iteration, report=report)``
        replays the uninterrupted run bit-identically.

        Raises ``ValueError`` when the checkpoint was cut under a different
        configuration (see :func:`_check_resumable`).
        """
        state = snapshot.state
        membership = [MembershipChange.from_dict(m) for m in state.get("membership", [])]
        _check_resumable(
            state,
            workload,
            sum(1 for change in membership if change.survivors >= 1),
            options.get("injector") or FaultInjector(),
            drift_schedule,
            shadow,
        )
        live = workload
        for change in membership:
            if change.survivors >= 1:
                live, _, _ = live.shrunk(change.lost_gpu)
            # A terminal change (survivors == 0) keeps the last 1-GPU
            # workload object; the cpu_only flag governs execution.
        saved_fleet = state.get("workload", {}).get("fleet")
        if saved_fleet is not None and list(live.fleet_profile) != list(saved_fleet):
            # Stage capacities, bandwidths, and the plan itself were all
            # priced against the checkpointed fleet's device profiles; a
            # different mix would silently diverge from the killed run.
            raise ValueError(
                f"checkpoint was cut on fleet {list(saved_fleet)}, but the resuming "
                f"workload is {list(live.fleet_profile)}"
            )
        planner = make_planner(live)
        plan = plan_from_json(snapshot.plan_text, live, graph_set)
        if drift_schedule is None:
            drift_schedule = [
                LatencyDrift.from_dict(d) for d in state.get("drift_schedule", ())
            ]
        runtime = cls(
            planner,
            graph_set,
            plan=plan,
            telemetry=telemetry,
            drift_schedule=drift_schedule,
            shadow=shadow,
            **options,
        )
        if shadow is not None:
            shadow.load_state(state.get("shadow", {}))
        runtime.plan_epoch = int(state.get("plan_epoch", 0))
        runtime._scale = float(state.get("scale", 1.0))
        runtime._total_scale = float(state.get("total_scale", 1.0))
        runtime._cpu_only = bool(state.get("cpu_only", False))
        runtime._pending_recovery_us = float(state.get("pending_recovery_us", 0.0))
        runtime._cpu_kernels = [kernel_from_dict(k) for k in state.get("cpu_kernels", [])]
        runtime._membership_log = membership
        runtime._original_ids = [
            int(g) for g in state.get("original_ids", range(live.num_gpus))
        ]
        runtime._epoch_retry_used = int(state.get("epoch_retry_used", 0))
        runtime._preempted = bool(state.get("preempted", False))
        runtime.watchdog.load_state(state.get("watchdog", {}))
        calibration = state.get("calibration")
        if calibration is not None and telemetry is not None:
            telemetry.load_state(calibration.get("telemetry", {}))
            runtime._calibrated = bool(calibration.get("calibrated", False))
            if runtime._calibrated:
                # The killed process was planning with corrected latencies;
                # resume with the same calibrated predictor so the replayed
                # trajectory (including any further replans) is identical.
                planner.set_predictor(
                    telemetry.calibrated_predictor(planner.cost_model.predictor)
                )
        report = ResilienceReport.from_dict(snapshot.report)
        next_iteration = int(state.get("next_iteration", snapshot.iteration))
        runtime._journal("resume", iteration=next_iteration, checkpoint=str(snapshot.directory))
        return runtime, report, next_iteration

    # ------------------------------------------------------------------
    # Single-kernel recovery ladder
    # ------------------------------------------------------------------

    def _recover_kernel(
        self,
        event: FaultEvent,
        assignments: dict[int, list[KernelDesc]],
        trailing: list[KernelDesc],
    ) -> KernelRecovery:
        """Walk one faulted kernel down the degradation ladder."""
        rec = KernelRecovery(event=event)
        site = self._pop_kernel(event, assignments, trailing)
        if site is None:
            return rec
        kernel, stage_idx = site
        stages = self.workload.stages_for_gpu(event.gpu)
        if 0 <= stage_idx < len(stages):
            stage = stages[stage_idx]
            stage_duration = stage.duration_us
        else:
            stage = None
            stage_duration = sum(s.duration_us for s in stages)

        if event.kind == LATENCY_OVERRUN:
            self._recover_overrun(rec, kernel, stage_idx, stage, assignments, trailing)
        elif event.kind == FUSED_OOM:
            self._recover_oom(rec, kernel, stage_idx, stage, assignments, trailing)
        else:
            self._recover_failure(
                rec, kernel, stage_idx, stage, stage_duration, assignments, trailing
            )
        return rec

    def _pop_kernel(
        self,
        event: FaultEvent,
        assignments: dict[int, list[KernelDesc]],
        trailing: list[KernelDesc],
    ) -> tuple[KernelDesc, int] | None:
        """Remove the event's target kernel from its placement site."""
        if event.stage >= 0:
            kernels = assignments.get(event.stage, [])
            for i, k in enumerate(kernels):
                if k.name == event.kernel:
                    return kernels.pop(i), event.stage
        for i, k in enumerate(trailing):
            if k.name == event.kernel:
                return trailing.pop(i), -1
        # Fall back to any stage (the plan may have shifted since the event
        # was drawn, e.g. after a replan earlier in the run).
        for stage_idx in sorted(assignments):
            kernels = assignments[stage_idx]
            for i, k in enumerate(kernels):
                if k.name == event.kernel:
                    return kernels.pop(i), stage_idx
        return None

    def _stage_budget_us(self, stage, stage_idx: int, assignments) -> float:
        """Leftover overlapping-capacity budget of a stage, after cohabitants."""
        capacity = self.planner.cost_model.stage_capacity(stage)
        used = sum(
            self.planner.cost_model.kernel_latency(k)
            for k in assignments.get(stage_idx, [])
        )
        return max(0.0, capacity - used)

    def _transition(
        self, rec: KernelRecovery, from_rung: str, to_rung: str, reason: str
    ) -> None:
        rec.transitions.append(
            LadderTransition(
                iteration=rec.event.iteration,
                gpu=rec.event.gpu,
                kernel=rec.event.kernel,
                from_rung=from_rung,
                to_rung=to_rung,
                reason=reason,
            )
        )
        rec.final_rung = to_rung

    def _reshard_to_leftover(self, kernel: KernelDesc, stage) -> list[KernelDesc] | None:
        """``kernel`` re-sharded into pieces that fit the reshard fraction of
        ``stage``'s leftover resources; ``None`` if it cannot be, or for
        trailing work (no stage)."""
        if stage is None:
            return None
        return fit_kernel_to_leftover(
            kernel, stage.leftover().scale(_RESHARD_LEFTOVER_FRACTION), self.workload.spec
        )

    # -- fault-class handlers ------------------------------------------

    def _recover_overrun(
        self, rec, kernel, stage_idx, stage, assignments, trailing
    ) -> None:
        """A kernel running longer than predicted may no longer fit its stage."""
        inflated = kernel.drifted(rec.event.magnitude)
        if stage is None:
            # Trailing work cannot overrun a budget; the exposure just grows.
            trailing.append(inflated)
            return
        budget = self._stage_budget_us(stage, stage_idx, assignments)
        if self.planner.cost_model.kernel_latency(inflated) <= budget:
            assignments.setdefault(stage_idx, []).append(inflated)
            return
        # A kernel in a stage is single-wave (it fits a leftover below a whole
        # SM), so no split of it runs shorter: it trails whole.
        trailing.append(inflated)
        self._transition(
            rec, CO_RUN, TRAILING, "overran stage budget and is unshardable; demoted"
        )

    def _recover_oom(self, rec, kernel, stage_idx, stage, assignments, trailing) -> None:
        """A fused kernel exceeding device memory recovers at lower degree."""
        persistent = rec.event.recover_after == -1
        members = list(kernel.meta.get("member_kernels", ())) if kernel.meta else []
        if not persistent:
            if len(members) >= 2 and stage is not None:
                # De-fuse: each member has a fraction of the fused footprint.
                assignments.setdefault(stage_idx, []).extend(members)
                rec.wasted_us += kernel.duration_us  # the OOM'd launch itself
                self._transition(
                    rec,
                    CO_RUN,
                    SHARD_RETRY,
                    f"fused OOM; de-fused into {len(members)} member kernel(s)",
                )
                return
            pieces = self._reshard_to_leftover(kernel, stage)
            if pieces is not None:
                assignments.setdefault(stage_idx, []).extend(pieces)
                rec.wasted_us += kernel.duration_us
                self._transition(
                    rec, CO_RUN, SHARD_RETRY, f"OOM; re-sharded into {len(pieces)} piece(s)"
                )
                return
            trailing.append(kernel)
            rec.wasted_us += kernel.duration_us
            self._transition(rec, CO_RUN, TRAILING, "OOM and unshardable; demoted to exposed")
            return
        # Persistent OOM: no on-GPU shape survives; record the full descent.
        rec.wasted_us += kernel.duration_us
        self._transition(rec, CO_RUN, SHARD_RETRY, "persistent OOM; de-fuse attempted")
        self._transition(rec, SHARD_RETRY, TRAILING, "members still OOM exposed")
        self._transition(rec, TRAILING, SEQUENTIAL, "OOM with device otherwise idle")
        self._transition(rec, SEQUENTIAL, CPU_FALLBACK, "evicted to host worker pool")
        rec.cpu_kernels.extend(members if members else [kernel])

    def _recover_failure(
        self, rec, kernel, stage_idx, stage, stage_duration, assignments, trailing
    ) -> None:
        """A failing kernel retries in place, then descends the ladder."""
        policy = self.retry_policy
        depth = rec.event.recover_after
        # The jitter token is a pure function of the fault event, so a
        # resumed run replays identical (jittered) backoff pauses.
        token = f"{rec.event.iteration}:{rec.event.gpu}:{rec.event.kernel}"
        allowed = policy.attempts_within(stage_duration, kernel.duration_us, token)
        if policy.retry_budget_per_epoch > 0:
            # Correlated-burst guard: once the epoch's shared budget drains,
            # further failures skip straight to demotion instead of
            # retry-spinning through a fault storm.
            remaining = max(0, policy.retry_budget_per_epoch - self._epoch_retry_used)
            allowed = min(allowed, remaining)

        if 0 < depth <= allowed:
            # Recovered in place: depth failed attempts, then success.
            rec.retries = depth
            rec.wasted_us += depth * kernel.duration_us
            rec.backoff_us += sum(policy.backoff_us(i, token) for i in range(depth))
            self._epoch_retry_used += depth
            self._restore(kernel, stage_idx, assignments, trailing)
            return

        rec.retries = allowed
        rec.wasted_us += allowed * kernel.duration_us
        rec.backoff_us += sum(policy.backoff_us(i, token) for i in range(allowed))
        self._epoch_retry_used += allowed

        persistent = depth == -1
        if not persistent:
            pieces = self._reshard_to_leftover(kernel, stage)
            if pieces is not None:
                assignments.setdefault(stage_idx, []).extend(pieces)
                self._transition(
                    rec,
                    CO_RUN,
                    SHARD_RETRY,
                    f"retries exhausted ({allowed}); re-sharded into {len(pieces)} piece(s)",
                )
                return

        self._transition(
            rec,
            CO_RUN if not rec.transitions else rec.final_rung,
            TRAILING,
            "retries exhausted; demoted to exposed work",
        )
        if not persistent:
            trailing.append(kernel)
            return
        # Persistent: trailing and sequential isolation both fail too.
        rec.wasted_us += kernel.duration_us
        self._transition(rec, TRAILING, SEQUENTIAL, "still failing while exposed; isolated")
        rec.wasted_us += kernel.duration_us
        self._transition(
            rec, SEQUENTIAL, CPU_FALLBACK, "fails even standalone; evicted to host pool"
        )
        rec.cpu_kernels.append(kernel)

    def _restore(
        self,
        kernel: KernelDesc,
        stage_idx: int,
        assignments: dict[int, list[KernelDesc]],
        trailing: list[KernelDesc],
    ) -> None:
        if stage_idx >= 0:
            assignments.setdefault(stage_idx, []).append(kernel)
        else:
            trailing.append(kernel)
