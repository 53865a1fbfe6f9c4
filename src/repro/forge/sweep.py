"""The sweep harness and the ``BENCH_scenarios.json`` scorecard.

A sweep expands a range of seeds through the forge, audits each scenario,
and executes every admitted one through the full planner+runtime stack --
in a child process per scenario (a planner crash or hang takes down one
seed, never the sweep) with a per-scenario timeout. Each run is scored on
five dimensions:

- **plan quality**: the RAP mapping's predicted exposed latency against an
  empirical oracle (the best of every mapping strategy on the same
  workload);
- **recovery**: how much wall time the run burned recovering, and the
  longest consecutive degraded streak;
- **ladder depth**: the deepest degradation rung any fault reached;
- **calibration**: whether telemetry's online recalibration actually
  reduced prediction error on drifting scenarios;
- **resume integrity**: for a rotating subset, a kill+restore mid-run must
  reproduce the uninterrupted run bit-identically.

:func:`build_scorecard` aggregates outcomes into per-dimension pass/fail
gates (:data:`GATE_CRITERIA`) and :func:`write_scorecard` lands the result
atomically as ``BENCH_scenarios.json``. Failing scenarios can be shrunk to
minimal reproducers via :mod:`repro.forge.triage`.
"""

from __future__ import annotations

import json
import multiprocessing
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from ..core import RapPlanner
from ..ioutil import atomic_write_json
from ..runtime import (
    CPU_FALLBACK,
    LADDER,
    CheckpointManager,
    FaultTolerantRuntime,
    ResilienceReport,
    SimulatedKill,
)
from ..telemetry import TelemetrySession
from .audit import audit_scenario
from .generator import ForgeConfig, ScenarioForge
from .scenario import Scenario, scenario_digest

__all__ = [
    "GATE_CRITERIA",
    "ScenarioOutcome",
    "SweepConfig",
    "run_scenario",
    "sweep",
    "build_scorecard",
    "write_scorecard",
]

SCORECARD_FORMAT_VERSION = 1

#: Depth of each degradation rung (index in the ladder).
LADDER_DEPTH = {rung: depth for depth, rung in enumerate(LADDER)}

#: The published robustness gates. Values are calibrated against sweeps of
#: the current stack: tightening one is a deliberate robustness claim,
#: loosening one is a regression that must be argued in review.
GATE_CRITERIA: dict[str, dict] = {
    "completion": {
        "description": "fraction of admitted scenarios that ran to the last iteration",
        "op": ">=",
        "threshold": 0.9,
    },
    "plan_quality": {
        "description": "p95 of predicted exposed latency vs best-strategy oracle",
        "op": "<=",
        "threshold": 1.5,
    },
    "recovery": {
        # Median, not p95: the forge *deliberately* emits storm scenarios
        # (pair loss + drift under retry jitter) whose recovery fraction
        # legitimately approaches 1.0, so the tail measures the generator,
        # not the runtime. The median says the typical adversarial scenario
        # recovers cheaply; the storms are guarded by completion and the
        # pinned worst-case reproducers in tests/forge/test_reproducers.py.
        "description": "median fraction of run wall time spent in recovery",
        "op": "<=",
        "threshold": 0.5,
    },
    "ladder_depth": {
        "description": "fraction of runs that fell all the way to cpu_fallback",
        "op": "<=",
        "threshold": 0.5,
    },
    "calibration": {
        "description": "fraction of drifting runs where recalibration reduced MAPE",
        "op": ">=",
        "threshold": 0.6,
    },
    "resume_integrity": {
        "description": "fraction of checked kill+resume runs replaying bit-identically",
        "op": ">=",
        "threshold": 1.0,
    },
}

#: Mapping strategies the empirical oracle searches over.
ORACLE_STRATEGIES = ("rap", "data_parallel", "data_locality")


@dataclass
class SweepConfig:
    """Knobs of one sweep invocation."""

    seeds: int = 100
    start_seed: int = 0
    iterations: int | None = None
    timeout_s: float = 300.0
    jobs: int = 0
    resume_check_every: int = 3
    triage_dir: Path | None = None
    forge: ForgeConfig = field(default_factory=ForgeConfig)

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = run inline)")
        if self.resume_check_every < 1:
            raise ValueError("resume_check_every must be >= 1")


@dataclass
class ScenarioOutcome:
    """One admitted scenario's scored run (JSON-ready via ``row``)."""

    row: dict

    @property
    def ok(self) -> bool:
        return self.row.get("status") == "ok"


# ----------------------------------------------------------------------
# Executing one scenario
# ----------------------------------------------------------------------


def _make_planner(workload, strategy: str = "rap") -> RapPlanner:
    return RapPlanner(workload, mapping_strategy=strategy)


def _longest_degraded_streak(report: ResilienceReport) -> int:
    longest = current = 0
    for record in report.iterations:
        current = current + 1 if record.degraded else 0
        longest = max(longest, current)
    return longest


def _resume_replays_identically(scenario: Scenario) -> bool:
    """Kill mid-run, restore from the latest checkpoint, compare reports."""
    graphs, workload = scenario.build_workload()
    uninterrupted = FaultTolerantRuntime(
        _make_planner(workload),
        graphs,
        injector=scenario.build_injector(),
        retry_policy=scenario.build_retry_policy(),
        telemetry=TelemetrySession(),
        drift_schedule=scenario.drift_schedule,
    ).run(scenario.iterations)

    checkpoint_every = 3
    kill_after = min(scenario.iterations - 1, checkpoint_every + 2)
    with tempfile.TemporaryDirectory(prefix="forge-resume-") as tmp:
        manager = CheckpointManager(Path(tmp) / "ckpt")
        runtime = FaultTolerantRuntime(
            _make_planner(workload),
            graphs,
            injector=scenario.build_injector(),
            retry_policy=scenario.build_retry_policy(),
            telemetry=TelemetrySession(),
            drift_schedule=scenario.drift_schedule,
        )
        try:
            runtime.run(
                scenario.iterations,
                checkpoints=manager,
                checkpoint_every=checkpoint_every,
                kill_after=kill_after,
            )
        except SimulatedKill:
            pass
        snapshot = manager.latest()
        if snapshot is None:
            return False
        restored, report, next_iteration = FaultTolerantRuntime.restore(
            snapshot,
            graphs,
            workload,
            make_planner=_make_planner,
            injector=scenario.build_injector(),
            retry_policy=scenario.build_retry_policy(),
            telemetry=TelemetrySession(),
            drift_schedule=scenario.drift_schedule,
        )
        resumed = restored.run(
            scenario.iterations - next_iteration,
            start_iteration=next_iteration,
            report=report,
        )
    return resumed.to_dict() == uninterrupted.to_dict()


def run_scenario(scenario: Scenario, check_resume: bool = False) -> dict:
    """Execute one scenario end to end and score it.

    Returns a JSON-serializable row; raises nothing for in-scenario
    failures (the caller's isolation handles crashes of this function
    itself).
    """
    graphs, workload = scenario.build_workload()

    # Empirical oracle: the best predicted exposure any mapping strategy
    # achieves on this exact workload. The RAP strategy is in the pool, so
    # the quality ratio is >= 1 by construction and 1.0 means "as good as
    # the best strategy we know".
    exposures: dict[str, float] = {}
    for strategy in ORACLE_STRATEGIES:
        planner = _make_planner(workload, strategy)
        exposures[strategy] = planner.plan_and_evaluate(graphs).plan.predicted_exposed_us
    rap_exposed = exposures["rap"]
    oracle_exposed = min(exposures.values())
    ratio = (rap_exposed + 1.0) / (oracle_exposed + 1.0)

    telemetry = TelemetrySession()
    runtime = FaultTolerantRuntime(
        _make_planner(workload),
        graphs,
        injector=scenario.build_injector(),
        retry_policy=scenario.build_retry_policy(),
        telemetry=telemetry,
        drift_schedule=scenario.drift_schedule,
    )
    report = runtime.run(scenario.iterations)

    total_iteration_us = sum(r.iteration_us for r in report.iterations)
    total_recovery_us = report.total_recovery_us + report.backoff_total_us
    max_depth = max(
        (LADDER_DEPTH[t.to_rung] for t in report.transitions), default=0
    )

    drifting = bool(scenario.drift_schedule)
    row = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "digest": scenario_digest(scenario),
        "status": "ok",
        "tags": list(scenario.tags),
        "fleet": list(scenario.fleet),
        "heterogeneous": scenario.heterogeneous,
        "iterations": scenario.iterations,
        "completed": report.num_iterations == scenario.iterations,
        "faults": report.num_faults,
        "replans": report.replans,
        "membership_changes": len(report.membership_changes),
        "plan_quality": {
            "rap_exposed_us": round(float(rap_exposed), 3),
            "oracle_exposed_us": round(float(oracle_exposed), 3),
            "oracle_strategy": min(exposures, key=exposures.get),
            "ratio": round(float(ratio), 6),
        },
        "recovery": {
            "total_us": round(float(total_recovery_us), 3),
            "fraction": round(
                float(total_recovery_us / total_iteration_us) if total_iteration_us else 0.0,
                6,
            ),
            "longest_degraded_streak": _longest_degraded_streak(report),
        },
        "ladder": {
            "max_depth": max_depth,
            "deepest_rung": LADDER[max_depth],
            "rungs": report.rungs_reached(),
        },
        "calibration": {
            "drifting": drifting,
            "drift_events": len(telemetry.drift_events),
            # float()/bool() strip numpy scalar types, which json refuses.
            "mape_raw": round(float(telemetry.predictor_mape), 6),
            "mape_calibrated": round(float(telemetry.calibrated_mape), 6),
            "improved": bool(
                telemetry.calibrated_mape <= telemetry.predictor_mape + 1e-9
            ),
        },
        "resume": {"checked": False, "identical": None},
    }
    if check_resume and scenario.iterations >= 6:
        row["resume"] = {
            "checked": True,
            "identical": _resume_replays_identically(scenario),
        }
    return row


def _failure_row(scenario: Scenario, status: str, error: str) -> dict:
    return {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "digest": scenario_digest(scenario),
        "status": status,
        "error": error,
        "tags": list(scenario.tags),
        "fleet": list(scenario.fleet),
        "heterogeneous": scenario.heterogeneous,
        "iterations": scenario.iterations,
        "completed": False,
    }


# ----------------------------------------------------------------------
# Crash isolation
# ----------------------------------------------------------------------


def _child_entry(scenario_json: str, check_resume: bool, result_path: str) -> None:
    """Child-process entry point: run one scenario, land the row on disk."""
    scenario = Scenario.from_dict(json.loads(scenario_json))
    try:
        row = run_scenario(scenario, check_resume=check_resume)
    except Exception:  # noqa: BLE001 - the row *is* the error report
        row = _failure_row(scenario, "error", traceback.format_exc(limit=10))
    atomic_write_json(result_path, row, indent=None)


def _run_isolated(
    scenario: Scenario, check_resume: bool, timeout_s: float, workdir: Path
) -> dict:
    """Run one scenario in its own process with a hard timeout."""
    result_path = workdir / f"{scenario.name}.row.json"
    process = multiprocessing.Process(
        target=_child_entry,
        args=(json.dumps(scenario.to_dict()), check_resume, str(result_path)),
    )
    process.start()
    process.join(timeout_s)
    if process.is_alive():
        process.terminate()
        process.join(10.0)
        if process.is_alive():  # pragma: no cover - kill-resistant child
            process.kill()
            process.join()
        return _failure_row(
            scenario, "timeout", f"exceeded the {timeout_s:.0f}s per-scenario timeout"
        )
    if not result_path.exists():
        return _failure_row(
            scenario, "crash", f"child exited {process.exitcode} without a result row"
        )
    try:
        return json.loads(result_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return _failure_row(scenario, "crash", f"unreadable result row: {exc}")


def _run_inline(scenario: Scenario, check_resume: bool) -> dict:
    try:
        return run_scenario(scenario, check_resume=check_resume)
    except Exception:  # noqa: BLE001 - isolation without a process
        return _failure_row(scenario, "error", traceback.format_exc(limit=10))


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------


def sweep(config: SweepConfig | None = None, log=None) -> dict:
    """Generate, audit, and execute ``config.seeds`` scenarios; score all.

    Returns the scorecard dict (see :func:`build_scorecard`). With
    ``config.jobs == 0`` scenarios run inline (fast, test-friendly);
    otherwise each runs in its own process with a per-scenario timeout,
    ``jobs`` of them concurrently.
    """
    config = config or SweepConfig()
    forge = ScenarioForge(config.forge)
    say = log or (lambda message: None)

    admitted: list[tuple[int, Scenario]] = []
    rejected: list[dict] = []
    for index in range(config.seeds):
        seed = config.start_seed + index
        scenario = forge.generate(seed)
        if config.iterations is not None:
            scenario = scenario.with_overrides(iterations=config.iterations)
            audit = audit_scenario(scenario)  # overrides void the seed-replay check
        else:
            audit = audit_scenario(scenario, forge)
        if audit.ok:
            admitted.append((index, scenario))
        else:
            rejected.append(audit.to_dict())
    say(f"admitted {len(admitted)}/{config.seeds} scenarios ({len(rejected)} rejected)")

    outcomes: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="forge-sweep-") as tmp:
        workdir = Path(tmp)
        if config.jobs == 0:
            for index, scenario in admitted:
                check = index % config.resume_check_every == 0
                outcomes.append(_run_inline(scenario, check))
        else:
            pending = list(admitted)
            while pending:
                batch, pending = pending[: config.jobs], pending[config.jobs :]
                # Per-batch fan-out keeps the bookkeeping trivial; a hung
                # scenario stalls only its batch slot for timeout_s.
                for index, scenario in batch:
                    check = index % config.resume_check_every == 0
                    outcomes.append(
                        _run_isolated(scenario, check, config.timeout_s, workdir)
                    )
        failing = [o for o in outcomes if o.get("status") != "ok"]
        say(
            f"ran {len(outcomes)} scenarios: {len(outcomes) - len(failing)} ok, "
            f"{len(failing)} failing"
        )

    reproducers: list[dict] = []
    if config.triage_dir is not None and failing:
        from .triage import minimize_scenario, reproduces_failure

        config.triage_dir.mkdir(parents=True, exist_ok=True)
        for row in failing:
            scenario = forge.generate(row["seed"])
            if config.iterations is not None:
                scenario = scenario.with_overrides(iterations=config.iterations)
            minimal = minimize_scenario(
                scenario, lambda s: reproduces_failure(s, row["status"])
            )
            path = config.triage_dir / f"{minimal.name}.repro.json"
            atomic_write_json(path, minimal.to_dict())
            reproducers.append({"scenario": minimal.name, "path": str(path)})
            say(f"minimized {row['scenario']} -> {path}")

    return build_scorecard(outcomes, rejected, reproducers=reproducers, config=config)


# ----------------------------------------------------------------------
# The scorecard
# ----------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation surprises)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _gate(name: str, value: float) -> dict:
    criteria = GATE_CRITERIA[name]
    threshold = criteria["threshold"]
    passed = value >= threshold if criteria["op"] == ">=" else value <= threshold
    return {
        "description": criteria["description"],
        "value": round(value, 6),
        "op": criteria["op"],
        "threshold": threshold,
        "pass": passed,
    }


def build_scorecard(
    outcomes: list[dict],
    rejected: list[dict] | None = None,
    reproducers: list[dict] | None = None,
    config: SweepConfig | None = None,
) -> dict:
    """Aggregate per-scenario rows into the gated robustness scorecard."""
    rejected = rejected or []
    ok_rows = [o for o in outcomes if o.get("status") == "ok"]

    completion = (
        sum(1 for o in ok_rows if o.get("completed")) / len(outcomes) if outcomes else 0.0
    )
    quality_p95 = _percentile(
        [o["plan_quality"]["ratio"] for o in ok_rows if "plan_quality" in o], 0.95
    )
    recovery_median = _percentile(
        [o["recovery"]["fraction"] for o in ok_rows if "recovery" in o], 0.5
    )
    fallback_fraction = (
        sum(1 for o in ok_rows if o.get("ladder", {}).get("deepest_rung") == CPU_FALLBACK)
        / len(ok_rows)
        if ok_rows
        else 0.0
    )
    drifting = [o for o in ok_rows if o.get("calibration", {}).get("drifting")]
    calibration = (
        sum(1 for o in drifting if o["calibration"]["improved"]) / len(drifting)
        if drifting
        else 1.0
    )
    resumes = [o for o in ok_rows if o.get("resume", {}).get("checked")]
    resume_integrity = (
        sum(1 for o in resumes if o["resume"]["identical"]) / len(resumes)
        if resumes
        else 1.0
    )

    dimensions = {
        "completion": _gate("completion", completion),
        "plan_quality": _gate("plan_quality", quality_p95),
        "recovery": _gate("recovery", recovery_median),
        "ladder_depth": _gate("ladder_depth", fallback_fraction),
        "calibration": _gate("calibration", calibration),
        "resume_integrity": _gate("resume_integrity", resume_integrity),
    }
    statuses: dict[str, int] = {}
    for row in outcomes:
        status = row.get("status", "unknown")
        statuses[status] = statuses.get(status, 0) + 1

    return {
        "format_version": SCORECARD_FORMAT_VERSION,
        "config": {
            "seeds": config.seeds if config else len(outcomes) + len(rejected),
            "start_seed": config.start_seed if config else 0,
            "jobs": config.jobs if config else 0,
            "timeout_s": config.timeout_s if config else None,
        },
        "admission": {
            "generated": len(outcomes) + len(rejected),
            "admitted": len(outcomes),
            "rejected": len(rejected),
            "rejections": rejected,
        },
        "statuses": statuses,
        "coverage": {
            "heterogeneous": sum(1 for o in outcomes if o.get("heterogeneous")),
            "drifting": len([o for o in outcomes if "drift" in " ".join(o.get("tags", []))]),
            "correlated": len(
                [
                    o
                    for o in outcomes
                    if any(
                        t in ("gpu-pair-loss", "pool-cascade", "drift-storm")
                        for t in o.get("tags", [])
                    )
                ]
            ),
            "resume_checked": len(resumes),
        },
        "dimensions": dimensions,
        "pass": all(d["pass"] for d in dimensions.values()),
        "scenarios": outcomes,
        "reproducers": reproducers or [],
    }


def write_scorecard(scorecard: dict, path: str | Path) -> Path:
    """Land the scorecard atomically (the nightly artifact contract)."""
    path = Path(path)
    atomic_write_json(path, scorecard)
    return path
