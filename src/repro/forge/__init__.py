"""``repro.forge`` -- adversarial scenario generation and robustness sweeps.

The planner is only as good as the workloads and fleets it is stressed
against. This package is the scenario-diversity engine (ROADMAP item 4):

- :mod:`repro.forge.scenario` -- the :class:`Scenario` schema: a workload
  spec, a (possibly heterogeneous) fleet, background fault rates, an
  explicit *correlated* fault schedule, per-op latency drift, and an
  arrival curve, all serializable to canonical JSON.
- :mod:`repro.forge.generator` -- :class:`ScenarioForge`, a seeded
  generator sampling randomized-but-audited scenarios across skew shifts,
  vocabulary growth, bursty/diurnal arrival, mixed A100/H100-class fleets,
  and correlated multi-GPU fault patterns.
- :mod:`repro.forge.audit` -- the admission audit every generated scenario
  must pass: feasibility, conservation, and bit-identical replayability
  from its seed.
- :mod:`repro.forge.sweep` -- the sweep harness executing planner+runtime
  across many seeds with crash isolation and per-scenario timeouts, and
  the ``BENCH_scenarios.json`` robustness scorecard with per-dimension
  pass/fail gates.
- :mod:`repro.forge.triage` -- shrinking a failing scenario to a minimal
  reproducer for regression pinning.
"""

from .audit import AuditFinding, AuditResult, audit_scenario
from .generator import ScenarioForge
from .scenario import (
    SCENARIO_FORMAT_VERSION,
    ArrivalCurve,
    Scenario,
    WorkloadSpec,
    scenario_digest,
)
from .sweep import (
    GATE_CRITERIA,
    SweepConfig,
    build_scorecard,
    run_scenario,
    sweep,
    write_scorecard,
)
from .triage import minimize_scenario

__all__ = [
    "SCENARIO_FORMAT_VERSION",
    "ArrivalCurve",
    "Scenario",
    "WorkloadSpec",
    "scenario_digest",
    "ScenarioForge",
    "AuditFinding",
    "AuditResult",
    "audit_scenario",
    "GATE_CRITERIA",
    "SweepConfig",
    "build_scorecard",
    "run_scenario",
    "sweep",
    "write_scorecard",
    "minimize_scenario",
]
