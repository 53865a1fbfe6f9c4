"""Tenant specs, priority/deadline classes, and the job state machine.

A :class:`TenantSpec` is everything a tenant submits: which canned
preprocessing plan to run, batch shape, priority class (its fair-share
weight), deadline class (the training slowdown it will tolerate),
arrival time, and an optional fault-injection rate. :class:`Job` is the
service's mutable view of one admitted spec -- carved share, plan
provenance, runtime handle, accumulated report.

Tenant names double as checkpoint namespaces, journal directory names,
and metric label values, so they are validated against the checkpoint
namespace grammar up front.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..dlrm.model import model_for_plan
from ..dlrm.training import TrainingWorkload
from ..preprocessing.plans import PLAN_TABLE, build_plan
from ..runtime.faults import FAULT_KINDS, GPU_LOST, KERNEL_FAILURE, FaultInjector, FaultSpec
from .reuse import renamed_model

if TYPE_CHECKING:  # pragma: no cover
    from ..preprocessing.data import CriteoSchema
    from ..preprocessing.graph import GraphSet

__all__ = [
    "PRIORITY_CLASSES",
    "DEADLINE_CLASSES",
    "TenantSpec",
    "JobState",
    "Job",
    "parse_tenant_specs",
]

#: Priority class -> weighted max-min fair-share weight. ``best_effort``
#: tenants are additionally the only preemption victims.
PRIORITY_CLASSES: dict[str, float] = {
    "prod": 4.0,
    "standard": 2.0,
    "best_effort": 1.0,
}

#: Deadline class -> maximum tolerated training slowdown, i.e. the cap on
#: ``(ideal + exposed) / ideal`` for the tenant's own job. ``none`` never
#: constrains admission.
DEADLINE_CLASSES: dict[str, float] = {
    "strict": 1.02,
    "relaxed": 1.25,
    "none": math.inf,
}

_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's submitted workload and service-level expectations."""

    name: str
    plan_id: int = 1
    local_batch: int = 2048
    priority: str = "standard"
    deadline: str = "none"
    arrive_iteration: int = 0
    num_iterations: int = 24
    seed: int = 2024
    fault_rate: float = 0.0
    fault_kind: str = KERNEL_FAILURE
    #: Rename graphs/columns/tables with a ``{name}.`` prefix. Off by
    #: default so a lone tenant is byte-identical to a standalone run;
    #: on, the tenant exercises the tenant-invariant plan index.
    rename: bool = False

    def __post_init__(self) -> None:
        if not _NAME_RE.fullmatch(self.name):
            raise ValueError(f"bad tenant name {self.name!r}")
        if self.plan_id not in PLAN_TABLE:
            raise ValueError(f"unknown plan id {self.plan_id}")
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"priority must be one of {sorted(PRIORITY_CLASSES)}, got {self.priority!r}"
            )
        if self.deadline not in DEADLINE_CLASSES:
            raise ValueError(
                f"deadline must be one of {sorted(DEADLINE_CLASSES)}, got {self.deadline!r}"
            )
        if self.arrive_iteration < 0:
            raise ValueError("arrive_iteration must be >= 0")
        if self.num_iterations < 1:
            raise ValueError("num_iterations must be >= 1")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        if self.fault_kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.fault_kind!r}")
        if self.fault_kind == GPU_LOST:
            # The service owns the fleet and carves it for every tenant; a
            # carve models shares of whole devices, not one tenant's loss.
            raise ValueError(
                "tenants cannot inject gpu_lost: the service owns the fleet and "
                "its carves do not model per-tenant device loss"
            )

    @property
    def weight(self) -> float:
        return PRIORITY_CLASSES[self.priority]

    @property
    def max_slowdown(self) -> float:
        return DEADLINE_CLASSES[self.deadline]

    @property
    def preemptible(self) -> bool:
        return self.priority == "best_effort"

    def build(self, num_gpus: int) -> tuple[TrainingWorkload, "GraphSet", "CriteoSchema"]:
        """The tenant's workload, graph set, and schema on an N-GPU fleet."""
        graphs, schema = build_plan(self.plan_id, rows=self.local_batch)
        config = model_for_plan(graphs, schema)
        if self.rename:
            graphs, config = renamed_model(graphs, config, self.name)
        workload = TrainingWorkload(
            config, num_gpus=num_gpus, local_batch=self.local_batch
        )
        return workload, graphs, schema

    def injector(self) -> FaultInjector:
        if self.fault_rate <= 0.0:
            return FaultInjector(seed=self.seed)
        return FaultInjector(
            specs=(FaultSpec(kind=self.fault_kind, rate=self.fault_rate),),
            seed=self.seed,
        )


class JobState:
    """Lifecycle states of one tenant job (plain strings, not an enum)."""

    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    COMPLETED = "completed"
    REJECTED = "rejected"


@dataclass
class Job:
    """The service's mutable bookkeeping for one submitted tenant."""

    spec: TenantSpec
    state: str = JobState.QUEUED
    share: float = 0.0
    #: How the active plan was obtained: ``cold`` (full search),
    #: ``warm-exact`` (exact-key plan cache hit), or ``warm-invariant``
    #: (renamed from an isomorphic tenant's canonical plan).
    plan_source: str = ""
    admitted_at: int | None = None
    completed_at: int | None = None
    iterations_done: int = 0
    preemptions: int = 0
    admission_us: float = 0.0
    #: Populated at admission; None while queued/rejected.
    workload: TrainingWorkload | None = None
    graphs: "GraphSet | None" = None
    schema: "CriteoSchema | None" = None
    runtime: object | None = None
    telemetry: object | None = None
    report: object | None = None
    history: list[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def remaining(self) -> int:
        return self.spec.num_iterations - self.iterations_done

    @property
    def active(self) -> bool:
        return self.state in (JobState.RUNNING, JobState.PREEMPTED)

    def note(self, event: str) -> None:
        self.history.append(event)

    def to_dict(self) -> dict:
        return {
            "tenant": self.name,
            "state": self.state,
            "priority": self.spec.priority,
            "deadline": self.spec.deadline,
            "share": self.share,
            "plan_source": self.plan_source,
            "admitted_at": self.admitted_at,
            "completed_at": self.completed_at,
            "iterations_done": self.iterations_done,
            "preemptions": self.preemptions,
            "admission_us": self.admission_us,
            "history": list(self.history),
        }


def parse_tenant_specs(text: str) -> list[TenantSpec]:
    """Parse the CLI's ``--tenants`` grammar into specs.

    Grammar: ``NAME[:key=val[:key=val...]][,NAME...]`` with keys ``plan``,
    ``batch``, ``class`` (priority), ``deadline``, ``arrive``, ``iters``,
    ``seed``, ``faults`` (rate), ``kind`` (fault kind), and ``rename``
    (0/1). Example::

        alice:plan=1:class=prod:deadline=strict,bob:class=best_effort:faults=0.2
    """
    specs: list[TenantSpec] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        name, options = parts[0], parts[1:]
        kwargs: dict = {}
        for option in options:
            key, sep, value = option.partition("=")
            if not sep:
                raise ValueError(f"tenant option {option!r} is not key=value")
            if key == "plan":
                kwargs["plan_id"] = int(value)
            elif key == "batch":
                kwargs["local_batch"] = int(value)
            elif key == "class":
                kwargs["priority"] = value
            elif key == "deadline":
                kwargs["deadline"] = value
            elif key == "arrive":
                kwargs["arrive_iteration"] = int(value)
            elif key == "iters":
                kwargs["num_iterations"] = int(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key == "faults":
                kwargs["fault_rate"] = float(value)
            elif key == "kind":
                kwargs["fault_kind"] = value
            elif key == "rename":
                kwargs["rename"] = value not in ("0", "false", "no")
            else:
                raise ValueError(f"unknown tenant option {key!r}")
        specs.append(TenantSpec(name=name, **kwargs))
    if not specs:
        raise ValueError("--tenants lists no tenants")
    names = [s.name for s in specs]
    if len(names) != len(set(names)):
        raise ValueError("tenant names must be unique")
    return specs
