"""Multi-tenant preprocessing-as-a-service on one simulated fleet.

The rest of the repo plans and runs ONE training job at a time. This
package turns that machinery into a long-lived service: many tenants
submit preprocessing+training jobs against the same simulated fleet, an
admission controller prices each one with the existing
:class:`repro.core.planner.RapPlanner` against the capacity *left over*
after already-admitted tenants (the same leftover-capacity framing RAP
applies between training stages and preprocessing kernels, lifted one
level up to apply between tenants), and a weighted max-min fair-share
scheduler carves per-stage GPU capacity between them -- preempting
best-effort tenants to CPU fallback when a higher class cannot meet its
deadline otherwise.

Isolation is per-tenant end to end: every tenant gets its own
:class:`repro.telemetry.TelemetrySession` (all ``rap_*`` families carry a
``tenant`` label), its own journal and checkpoint namespace under one
service root, and its own runtime -- one tenant's faults or ladder
descent can never mutate another tenant's plan or epoch. Plans are
shared *across* tenants through a tenant-invariant index: a returning
tenant whose graph set is isomorphic to an already-planned one admits on
a renamed copy of the cached plan without touching the solver.
"""

from .carve import CarvedTrainingWorkload, carve_stage, carved_workload, weighted_max_min
from .job import (
    DEADLINE_CLASSES,
    PRIORITY_CLASSES,
    Job,
    JobState,
    TenantSpec,
    parse_tenant_specs,
)
from .metrics import ServiceMetrics
from .reuse import SharedPlanIndex, canonicalize_plan, renamed_model, specialize_plan
from .service import PreprocessingService, ServiceSummary

__all__ = [
    "CarvedTrainingWorkload",
    "carve_stage",
    "carved_workload",
    "weighted_max_min",
    "DEADLINE_CLASSES",
    "PRIORITY_CLASSES",
    "Job",
    "JobState",
    "TenantSpec",
    "parse_tenant_specs",
    "ServiceMetrics",
    "SharedPlanIndex",
    "canonicalize_plan",
    "renamed_model",
    "specialize_plan",
    "PreprocessingService",
    "ServiceSummary",
]
