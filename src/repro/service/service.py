"""The long-lived preprocessing service: admission, carving, isolation.

:class:`PreprocessingService` runs many tenant jobs on one simulated
fleet. Simulated time is a global iteration tick shared by every tenant;
the service advances event to event (arrival, completion), running every
active tenant's runtime forward between events. All control decisions --
shares, admission, preemption -- are functions of the submitted specs
alone, so a service run is deterministic end to end (wall-clock admission
latency is *measured* and exported, never consulted).

Admission prices the candidate with a real :class:`RapPlanner` against
the capacity left over after already-admitted tenants (a
:func:`~repro.service.carve.carved_workload` at the candidate's
would-be fair share), in three tiers:

1. exact plan-cache hit (the tenant ran this exact workload before);
2. tenant-invariant hit (an isomorphic tenant ran it; the canonical
   plan is renamed into this tenant's namespace -- no solver call);
3. cold search (stored under both the exact and invariant keys).

If the candidate's deadline class cannot be met at its fair share,
best-effort tenants are preempted (evicted to CPU fallback) one at a
time; if it still cannot be met the candidate queues (or is rejected
when it cannot even run alone). Preempted tenants resume onto the
residual capacity when a completion frees it.

Isolation: every tenant owns its runtime, planner view, telemetry
session (``tenant``-labelled), journal, and checkpoint namespace under
one service root. Faults injected into one tenant degrade only that
tenant; shares -- and with them other tenants' plans and epochs --
change only at admission, completion, preemption, and resume events,
never on faults.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.plan_cache import PlanCache, invariant_plan_key
from ..core.planner import RapPlanner
from ..runtime.checkpoint import CheckpointManager
from ..runtime.executor import FaultTolerantRuntime
from ..runtime.journal import RunJournal
from ..runtime.report import ResilienceReport
from ..telemetry.exposition import write_prometheus
from ..telemetry.session import TelemetrySession
from .carve import carved_workload, weighted_max_min
from .job import Job, JobState, TenantSpec
from .metrics import ServiceMetrics
from .reuse import SharedPlanIndex

__all__ = ["PreprocessingService", "ServiceSummary"]


@dataclass
class ServiceSummary:
    """What one service run did, per tenant and in aggregate."""

    ticks: int = 0
    jobs: list[dict] = field(default_factory=list)
    plan_cache: dict = field(default_factory=dict)
    reuse: dict = field(default_factory=dict)
    fleet_gpu_kernel_us: float = 0.0

    def to_dict(self) -> dict:
        return {
            "ticks": self.ticks,
            "jobs": self.jobs,
            "plan_cache": self.plan_cache,
            "reuse": self.reuse,
            "fleet_gpu_kernel_us": self.fleet_gpu_kernel_us,
        }

    def job(self, tenant: str) -> dict:
        for entry in self.jobs:
            if entry["tenant"] == tenant:
                return entry
        raise KeyError(f"no tenant {tenant!r} in summary")

    def lines(self) -> list[str]:
        out = [f"service ticks: {self.ticks}"]
        for entry in self.jobs:
            out.append(
                f"  {entry['tenant']}: {entry['state']}"
                f" class={entry['priority']}"
                f" share={entry['share']:.3f}"
                f" plan={entry['plan_source'] or '-'}"
                f" iters={entry['iterations_done']}"
                f" preemptions={entry['preemptions']}"
                f" mean_exposed={entry['mean_exposed_us']:.1f}us"
            )
        out.append(
            "  plan cache: "
            f"{self.plan_cache.get('hits', 0)} hits, "
            f"{self.plan_cache.get('misses', 0)} misses, "
            f"{self.reuse.get('hits', 0)} invariant hits"
        )
        return out


def _plan_gpu_kernel_us(plan) -> float:
    """Per-iteration preprocessing time the plan places on GPUs."""
    # Summed per stage in dict order, not over RapPlan.placed_kernels():
    # the printed fleet_gpu_kernel_us depends on this float order.
    total = 0.0
    for per_gpu in plan.assignments_per_gpu:
        for kernels in per_gpu.values():
            total += sum(k.duration_us for k in kernels)
    for trailing in plan.trailing_per_gpu:
        total += sum(k.duration_us for k in trailing)
    return total


class PreprocessingService:
    """Admits, carves, runs, and isolates many tenant jobs on one fleet."""

    def __init__(
        self,
        root: str | Path,
        num_gpus: int = 2,
        fair_share: bool = True,
        max_concurrent: int | None = None,
        checkpoint_every: int = 0,
        keep_checkpoints: int = 3,
        telemetry: bool = True,
        cache_dir: str | Path | None = None,
    ) -> None:
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.num_gpus = num_gpus
        self.fair_share = fair_share
        self.max_concurrent = max_concurrent
        self.checkpoint_every = checkpoint_every
        self.keep_checkpoints = keep_checkpoints
        self.telemetry_enabled = telemetry
        # One plan cache shared by every tenant planner: it is
        # content-addressed, so sharing is safe by construction and is
        # exactly what makes cross-tenant reuse free. It is the service's
        # only cache -- each planner solves its own fusion MILPs. ``cache_dir``
        # lets a fresh service process warm-start from a previous root.
        cache_dir = Path(cache_dir) if cache_dir is not None else self.root / "cache"
        self.plan_cache = PlanCache(cache_dir)
        self.reuse = SharedPlanIndex(self.plan_cache)
        self.metrics = ServiceMetrics()
        self.plan_cache.bind_metrics(self.metrics.registry, cache="plan")
        self.journal = RunJournal(self.root / "service.jsonl")
        self.jobs: list[Job] = []

    # ------------------------------------------------------------------
    # Submission

    def submit(self, spec: TenantSpec) -> Job:
        if any(j.name == spec.name for j in self.jobs):
            raise ValueError(f"tenant {spec.name!r} already submitted")
        job = Job(spec=spec)
        self.jobs.append(job)
        return job

    # ------------------------------------------------------------------
    # Shares

    def _running(self) -> list[Job]:
        return [j for j in self.jobs if j.state == JobState.RUNNING]

    def _shares_for(self, jobs: list[Job]) -> dict[str, float]:
        if not jobs:
            return {}
        if not self.fair_share:
            # Carving off: every tenant plans against the full leftover
            # (the paper's single-job regime, oversubscribed on purpose).
            return {j.name: 1.0 for j in jobs}
        return weighted_max_min(
            {j.name: 1.0 for j in jobs},
            {j.name: j.spec.weight for j in jobs},
        )

    # ------------------------------------------------------------------
    # Pricing

    def _ensure_built(self, job: Job) -> None:
        if job.workload is None:
            job.workload, job.graphs, job.schema = job.spec.build(self.num_gpus)

    def _price(self, job: Job, share: float):
        """Plan ``job`` at ``share`` of the leftover: cache, rename, or search."""
        self._ensure_built(job)
        workload = carved_workload(job.workload, share)
        planner = RapPlanner(workload, cache=self.plan_cache)
        exact_key = planner._cache_key(job.graphs)
        torn = False
        if exact_key in self.plan_cache:
            # The cache's load decides whether it hit: a torn disk entry is
            # a miss, and the invariant index is asked before a cold search.
            plan = self.plan_cache.get(exact_key, workload, job.graphs)
            if plan is not None:
                return planner, plan, "warm-exact"
            torn = True
        invariant_key = invariant_plan_key(
            workload,
            job.graphs,
            planner.mapping_strategy,
            planner.fusion_enabled,
            planner.interleaving_enabled,
            planner.solver,
            predictor_fingerprint=planner._predictor_fingerprint(),
        )
        plan = self.reuse.lookup(invariant_key, workload, job.graphs)
        if plan is not None:
            # Promote to this tenant's exact key so its next admission
            # is a plain exact hit.
            self.plan_cache.put(exact_key, plan)
            return planner, plan, "warm-invariant"
        if torn:
            # The torn entry's miss is already counted: search and
            # overwrite it without a second lookup.
            plan = planner._search(job.graphs)
            self.plan_cache.put(exact_key, plan)
        else:
            plan = planner.plan(job.graphs)
        self.reuse.store(invariant_key, plan, job.graphs)
        return planner, plan, "cold"

    def _meets_deadline(self, job: Job, plan) -> bool:
        limit = job.spec.max_slowdown
        if limit == float("inf"):
            return True
        ideal = job.workload.ideal_iteration_us()
        if ideal <= 0:
            return True
        return (ideal + plan.predicted_exposed_us) / ideal <= limit

    # ------------------------------------------------------------------
    # Admission

    def _try_admit(self, job: Job, tick: int) -> bool:
        """Admit ``job`` if its deadline (and everyone else's) holds.

        Returns True when the job is RUNNING afterwards. May preempt
        best-effort tenants; may leave the job QUEUED; marks it REJECTED
        when it cannot meet its deadline even alone on an idle fleet.
        """
        started = time.perf_counter()
        self._ensure_built(job)
        running = self._running()
        if self.max_concurrent is not None and len(running) >= self.max_concurrent:
            self._record_admission(job, tick, "queued", started)
            return False
        trial = running + [job]
        victims: list[Job] = []
        while True:
            shares = self._shares_for(trial)
            planner, plan, source = self._price(job, shares[job.name])
            ok = self._meets_deadline(job, plan)
            if ok:
                for other in trial:
                    if other is job or other.spec.max_slowdown == float("inf"):
                        continue
                    _, other_plan, _ = self._price(other, shares[other.name])
                    if not self._meets_deadline(other, other_plan):
                        ok = False
                        break
            if ok:
                break
            candidates = [
                j for j in trial
                if j is not job and j.spec.preemptible and not job.spec.preemptible
            ]
            if not candidates:
                if len(trial) == 1:
                    job.state = JobState.REJECTED
                    self._record_admission(job, tick, "rejected", started)
                else:
                    self._record_admission(job, tick, "queued", started)
                return False
            # Most recently admitted best-effort tenant goes first.
            victim = max(candidates, key=lambda j: (j.admitted_at, j.name))
            trial.remove(victim)
            victims.append(victim)
        for victim in victims:
            self._preempt(victim, tick)
        job.state = JobState.RUNNING
        job.admitted_at = tick
        job.share = shares[job.name]
        job.plan_source = source
        job.report = ResilienceReport()
        self._attach(job, planner, plan)
        job.note(f"admitted@{tick}:{source}")
        self._record_admission(job, tick, "admitted", started)
        self.metrics.note_plan_reuse(source)
        self.journal.append(
            "admit", tenant=job.name, tick=tick, share=job.share, source=source
        )
        # The newcomer shrinks everyone else's carve.
        self._apply_shares(tick, reason="carve", shares=shares)
        return True

    def _record_admission(self, job: Job, tick: int, outcome: str, started: float) -> None:
        job.admission_us = (time.perf_counter() - started) * 1e6
        self.metrics.observe_admission(outcome, job.admission_us)
        if outcome == "queued":
            if job.state != JobState.QUEUED:
                job.state = JobState.QUEUED
            job.note(f"queued@{tick}")
            self.journal.append("queue", tenant=job.name, tick=tick)
        elif outcome == "rejected":
            job.note(f"rejected@{tick}")
            self.journal.append("reject", tenant=job.name, tick=tick)
        self.metrics.set_queue_depth(
            sum(1 for j in self.jobs if j.state == JobState.QUEUED)
        )

    def _attach(self, job: Job, planner: RapPlanner, plan) -> None:
        """Create the tenant's isolated runtime, telemetry, and journal."""
        tenant_dir = self.root / "tenants" / job.name
        tenant_dir.mkdir(parents=True, exist_ok=True)
        if self.telemetry_enabled:
            job.telemetry = TelemetrySession(
                metrics_dir=tenant_dir / "metrics", tenant=job.name
            )
        job.runtime = FaultTolerantRuntime(
            planner,
            job.graphs,
            plan=plan,
            injector=job.spec.injector(),
            journal=RunJournal(tenant_dir / "journal.jsonl"),
            telemetry=job.telemetry,
            tenant=job.name,
        )

    # ------------------------------------------------------------------
    # Preemption / resume / rebalance

    def _preempt(self, job: Job, tick: int) -> None:
        job.state = JobState.PREEMPTED
        job.share = 0.0
        job.preemptions += 1
        job.runtime.evict_to_cpu(iteration=job.iterations_done, reason="preempted")
        job.note(f"preempted@{tick}")
        self.metrics.note_preemption(job.name)
        self.metrics.set_share(job.name, 0.0)
        self.journal.append("preempt", tenant=job.name, tick=tick)

    def _resume_preempted(self, tick: int) -> None:
        for job in [j for j in self.jobs if j.state == JobState.PREEMPTED]:
            if job.remaining <= 0:
                continue
            running = self._running()
            if self.max_concurrent is not None and len(running) >= self.max_concurrent:
                continue
            trial = running + [job]
            shares = self._shares_for(trial)
            planner, plan, source = self._price(job, shares[job.name])
            protected_ok = True
            for other in running:
                if other.spec.max_slowdown == float("inf"):
                    continue
                _, other_plan, _ = self._price(other, shares[other.name])
                if not self._meets_deadline(other, other_plan):
                    protected_ok = False
                    break
            if not protected_ok:
                continue
            job.state = JobState.RUNNING
            job.share = shares[job.name]
            job.plan_source = source
            job.runtime.adopt_plan(
                planner, plan, iteration=job.iterations_done, reason="resume"
            )
            job.note(f"resumed@{tick}:{source}")
            self.journal.append(
                "resume", tenant=job.name, tick=tick, share=job.share, source=source
            )
            self._apply_shares(tick, reason="carve", shares=shares)

    def _apply_shares(
        self, tick: int, reason: str, shares: dict[str, float] | None = None
    ) -> None:
        """Re-carve every running tenant; replan only the changed ones.

        Called at admission, completion, preemption, and resume events --
        and nowhere else. One tenant's faults therefore never move
        another tenant's share, plan, or epoch.
        """
        running = self._running()
        if shares is None:
            shares = self._shares_for(running)
        for job in sorted(running, key=lambda j: j.name):
            share = shares.get(job.name, job.share)
            self.metrics.set_share(job.name, share)
            if job.runtime is not None and share == job.share:
                continue
            planner, plan, source = self._price(job, share)
            job.share = share
            job.plan_source = source
            if job.runtime is None:
                self._attach(job, planner, plan)
            else:
                job.runtime.adopt_plan(
                    planner, plan, iteration=job.iterations_done, reason=reason
                )
                self.journal.append(
                    "carve", tenant=job.name, tick=tick, share=share, source=source
                )
        self.metrics.set_active_tenants(len(running))

    # ------------------------------------------------------------------
    # The deterministic event loop

    def run(self) -> ServiceSummary:
        """Drive every submitted job to completion (or rejection)."""
        order = {id(j): i for i, j in enumerate(self.jobs)}
        pending = sorted(
            self.jobs, key=lambda j: (j.spec.arrive_iteration, order[id(j)])
        )
        tick = 0
        while True:
            # Arrivals due now (admission may preempt, so re-read state).
            due = [
                j for j in pending
                if j.state == JobState.QUEUED and j.spec.arrive_iteration <= tick
            ]
            for job in due:
                self._try_admit(job, tick)
            active = [j for j in self.jobs if j.active and j.remaining > 0]
            future = [
                j for j in pending
                if j.state == JobState.QUEUED and j.spec.arrive_iteration > tick
            ]
            if not active:
                if future:
                    tick = min(j.spec.arrive_iteration for j in future)
                    continue
                # Queued-but-never-admittable jobs cannot make progress
                # once the fleet is idle: a final attempt settles them.
                stuck = [j for j in self.jobs if j.state == JobState.QUEUED]
                progressed = any(self._try_admit(j, tick) for j in stuck)
                if not progressed:
                    break
                continue
            horizon = tick + min(j.remaining for j in active)
            if future:
                horizon = min(horizon, min(j.spec.arrive_iteration for j in future))
            delta = max(1, horizon - tick)
            for job in sorted(active, key=lambda j: order[id(j)]):
                checkpoints = None
                if self.checkpoint_every > 0:
                    checkpoints = CheckpointManager(
                        self.root / "checkpoints",
                        keep=self.keep_checkpoints,
                        namespace=job.name,
                    )
                job.runtime.run(
                    delta,
                    start_iteration=job.iterations_done,
                    report=job.report,
                    checkpoints=checkpoints,
                    checkpoint_every=self.checkpoint_every,
                )
                job.iterations_done += delta
            tick += delta
            finished = [j for j in self.jobs if j.active and j.remaining <= 0]
            for job in finished:
                self._complete(job, tick)
            if finished:
                for job in pending:
                    if job.state == JobState.QUEUED and job.spec.arrive_iteration <= tick:
                        self._try_admit(job, tick)
                self._resume_preempted(tick)
                self._apply_shares(tick, reason="carve")
        return self._summarize(tick)

    def _complete(self, job: Job, tick: int) -> None:
        job.state = JobState.COMPLETED
        job.completed_at = tick
        job.note(f"completed@{tick}")
        self.journal.append(
            "complete", tenant=job.name, tick=tick, iterations=job.iterations_done
        )
        if job.telemetry is not None:
            job.telemetry.write_artifacts(step=job.iterations_done)
            mean = self._mean_exposed(job)
            if mean is not None:
                self.metrics.set_tenant_exposed(job.name, mean)
        self.metrics.set_carve_utilization(job.name, self._carve_utilization(job))

    @staticmethod
    def _mean_exposed(job: Job) -> float | None:
        records = job.report.iterations if job.report is not None else []
        if not records:
            return None
        return sum(r.exposed_us for r in records) / len(records)

    @staticmethod
    def _carve_utilization(job: Job) -> float:
        """Fraction of the tenant's kernels that ended on the GPUs."""
        runtime = job.runtime
        if runtime is None:
            return 0.0
        on_gpu = sum(runtime.plan.num_kernels_per_gpu())
        on_cpu = len(runtime._cpu_kernels)
        total = on_gpu + on_cpu
        return on_gpu / total if total else 0.0

    # ------------------------------------------------------------------
    # Summary / artifacts

    def _summarize(self, tick: int) -> ServiceSummary:
        summary = ServiceSummary(
            ticks=tick,
            plan_cache=self.plan_cache.stats.to_dict(),
            reuse={
                "hits": self.reuse.hits,
                "misses": self.reuse.misses,
                "stores": self.reuse.stores,
            },
        )
        for job in self.jobs:
            entry = job.to_dict()
            mean = self._mean_exposed(job)
            entry["mean_exposed_us"] = mean if mean is not None else 0.0
            entry["plan_epoch"] = job.runtime.plan_epoch if job.runtime is not None else 0
            entry["gpu_kernel_us"] = (
                _plan_gpu_kernel_us(job.runtime.plan) if job.runtime is not None else 0.0
            )
            entry["carve_utilization"] = self._carve_utilization(job)
            summary.jobs.append(entry)
            summary.fleet_gpu_kernel_us += entry["gpu_kernel_us"]
        write_prometheus(self.root / "service_metrics.prom", self.metrics.registry)
        (self.root / "service_summary.json").write_text(
            json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return summary
