"""``rap-repro`` -- command-line interface to the RAP reproduction.

Subcommands
-----------
plan
    Search a RAP co-running plan for one of the Table-3 workloads, print
    the schedule summary, and optionally write the generated plan module,
    a Chrome trace of the simulated iteration, or a JSON plan artifact.
run
    Execute a plan through the fault-tolerant runtime for N iterations,
    optionally injecting deterministic faults, and print the resilience
    report (recovery ladder, retries, replans). ``--shadow`` attaches
    the guarded shadow-promotion loop (DESIGN.md §15).
journal
    Pretty-print and validate a run journal: the control-plane event
    timeline, promotion/rollback transactions, and crash signatures
    (torn tail vs mid-file corruption).
sweep
    Expand N forge seeds into audited adversarial scenarios, execute each
    through planner + runtime with crash isolation, and publish the gated
    robustness scorecard (``BENCH_scenarios.json``).
compare
    Run RAP against all four baseline systems on one workload.
experiments
    Regenerate every paper table and figure (``--quick`` for a smoke run).
serve
    Run the multi-tenant preprocessing service: admit every ``--tenants``
    spec onto one simulated fleet, carve leftover capacity fair-share
    between them, and print the per-tenant service summary.
predictor
    Train the latency predictor offline and print Table-5 accuracy.
"""

from __future__ import annotations

import argparse
import json as _json
import sys
import time
from collections import Counter
from pathlib import Path

from .baselines import (
    run_cuda_stream_baseline,
    run_mps_baseline,
    run_sequential_baseline,
    run_torcharrow_baseline,
)
from .core import (
    PlanCache,
    PlanLoadError,
    RapPlanner,
    compile_plan,
    generate_plan_module,
    load_plan,
    save_plan,
)
from .dlrm import TrainingWorkload, model_for_plan
from .experiments.reporting import format_kv, format_table
from .gpusim import GPU_PROFILES, render_gantt, resolve_profile, to_chrome_trace
from .ingest import (
    OVERLOAD_POLICIES,
    IngestMetrics,
    PipelinedFeeder,
    QueueConfig,
    build_source,
)
from .preprocessing import (
    OP_REGISTRY,
    BufferArena,
    EngineMetrics,
    ParallelEngine,
    SyntheticCriteoDataset,
    build_plan,
)
from .preprocessing.executor import execute_graph_set
from .preprocessing.random_plans import RandomPlanConfig, generate_random_plan
from .runtime import (
    FAULT_KINDS,
    CheckpointManager,
    DataPathVerifier,
    FaultInjector,
    FaultSpec,
    FaultTolerantRuntime,
    RunJournal,
    ShadowConfig,
    ShadowPlanner,
    SimulatedKill,
    validate_records,
)
from .service import PreprocessingService, parse_tenant_specs
from .telemetry import LatencyDrift, TelemetrySession

__all__ = ["main", "build_parser"]


def _parse_fleet(spec: str) -> tuple:
    """Parse ``--fleet a100,h100,...`` into a tuple of GpuSpec profiles."""
    handles = [h.strip() for h in spec.split(",") if h.strip()]
    if not handles:
        raise ValueError(f"bad --fleet spec {spec!r}: expected PROFILE[,PROFILE...]")
    try:
        return tuple(resolve_profile(h) for h in handles)
    except ValueError as exc:
        raise ValueError(f"bad --fleet spec {spec!r}: {exc}") from None


def _describe_workload(args, workload) -> str:
    """One-line workload label reflecting the fleet actually built."""
    label = f"plan {args.plan}, {workload.num_gpus} GPUs, batch {args.batch}"
    if getattr(args, "fleet", None):
        label += f" ({', '.join(workload.fleet_profile)})"
    return label


def _workload(args) -> tuple:
    if getattr(args, "random_plan", False):
        graphs, schema = generate_random_plan(
            RandomPlanConfig(seed=args.seed), rows=args.batch
        )
    else:
        graphs, schema = build_plan(args.plan, rows=args.batch)
    model = model_for_plan(graphs, schema)
    fleet = getattr(args, "fleet", None)
    if fleet:
        specs = _parse_fleet(fleet)
        workload = TrainingWorkload(
            model,
            num_gpus=len(specs),
            local_batch=args.batch,
            spec=specs[0],
            specs=specs,
        )
    else:
        workload = TrainingWorkload(model, num_gpus=args.gpus, local_batch=args.batch)
    return graphs, schema, workload


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--plan", type=int, default=1, choices=(0, 1, 2, 3),
                        help="Table-3 preprocessing plan (default 1)")
    parser.add_argument("--gpus", type=int, default=4, help="number of simulated GPUs")
    parser.add_argument("--fleet", metavar="PROFILE[,PROFILE...]",
                        help="explicit per-GPU profile list (e.g. a100,h100,a100); "
                             f"overrides --gpus. Profiles: {', '.join(sorted(GPU_PROFILES))}")
    parser.add_argument("--batch", type=int, default=4096, help="per-GPU batch size")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for random-plan generation and fault injection")
    parser.add_argument("--random-plan", action="store_true",
                        help="use a randomly generated workload (seeded by --seed) "
                             "instead of a Table-3 plan")


def _add_fast_path_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--plan-cache", metavar="DIR",
                        help="content-addressed plan cache directory; "
                             "an unchanged workload re-plans as a hash lookup")
    parser.add_argument("--no-parallel-search", action="store_true",
                        help="accepted and ignored: mapping candidates are always "
                             "evaluated sequentially")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing output files instead of failing")


def _parse_inject(spec: str) -> FaultSpec:
    """Parse ``KIND=RATE[:MAGNITUDE[:PERSISTENCE]]`` into a FaultSpec."""
    kind, sep, rest = spec.partition("=")
    if not sep or not rest:
        raise ValueError(
            f"bad --inject spec {spec!r}: expected KIND=RATE[:MAGNITUDE[:PERSISTENCE]]"
        )
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"bad --inject spec {spec!r}: unknown fault kind {kind!r} "
            f"(expected one of {', '.join(FAULT_KINDS)})"
        )
    parts = rest.split(":")
    if len(parts) > 3:
        raise ValueError(
            f"bad --inject spec {spec!r}: expected KIND=RATE[:MAGNITUDE[:PERSISTENCE]]"
        )
    try:
        rate = float(parts[0])
        magnitude = float(parts[1]) if len(parts) > 1 else 2.0
        persistence = float(parts[2]) if len(parts) > 2 else 0.0
    except ValueError:
        raise ValueError(f"bad --inject spec {spec!r}: non-numeric value") from None
    return FaultSpec(kind, rate=rate, magnitude=magnitude, persistence=persistence)


def _parse_drift(spec: str) -> LatencyDrift:
    """Parse ``OP=FACTOR[:START[:END]]`` into a LatencyDrift."""
    op, sep, rest = spec.partition("=")
    if not sep or not rest:
        raise ValueError(
            f"bad --drift spec {spec!r}: expected OP=FACTOR[:START[:END]]"
        )
    if op not in OP_REGISTRY:
        raise ValueError(
            f"bad --drift spec {spec!r}: unknown op {op!r} "
            f"(expected one of {', '.join(sorted(OP_REGISTRY))})"
        )
    parts = rest.split(":")
    if len(parts) > 3:
        raise ValueError(
            f"bad --drift spec {spec!r}: expected OP=FACTOR[:START[:END]]"
        )
    try:
        factor = float(parts[0])
        start = int(parts[1]) if len(parts) > 1 else 0
        end = int(parts[2]) if len(parts) > 2 else None
    except ValueError:
        raise ValueError(f"bad --drift spec {spec!r}: non-numeric value") from None
    return LatencyDrift(op, factor, start_iteration=start, end_iteration=end)


def _check_clobber(path: str | None, force: bool) -> None:
    """Refuse to silently overwrite an existing artifact (exit 2 without --force)."""
    if path and not force and Path(path).exists():
        raise ValueError(f"{path} exists; pass --force to overwrite")


def _make_planner(args, workload) -> RapPlanner:
    cache_dir = getattr(args, "plan_cache", None)
    return RapPlanner(
        workload,
        mapping_strategy=getattr(args, "mapping", "rap"),
        fusion_enabled=not getattr(args, "no_fusion", False),
        cache=PlanCache(cache_dir) if cache_dir else None,
    )


def _print_cache_stats(planner: RapPlanner) -> None:
    if planner.cache is None:
        return
    stats = planner.cache.stats
    lines = {
        "plan cache": f"{stats.hits} hit(s) ({stats.disk_hits} disk-tier), "
        f"{stats.misses} miss(es), {stats.stores} store(s), "
        f"{stats.lock_contention} lock-contended"
    }
    print()
    print(format_kv(lines, title="Planner fast path"))


def _make_telemetry(args) -> TelemetrySession | None:
    if getattr(args, "no_telemetry", False):
        if getattr(args, "metrics_dir", None):
            raise ValueError("--metrics-dir conflicts with --no-telemetry")
        return None
    return TelemetrySession(metrics_dir=getattr(args, "metrics_dir", None))


def _bind_cache_metrics(planner: RapPlanner, telemetry: TelemetrySession | None) -> None:
    if telemetry is None:
        return
    if planner.cache is not None:
        planner.cache.bind_metrics(telemetry.registry, "plan")


def _print_telemetry_summary(telemetry: TelemetrySession | None) -> None:
    if telemetry is None:
        return
    lines = {}
    for line in telemetry.summary_lines():
        key, _, value = line.partition(":")
        lines[key.strip()] = value.strip()
    print()
    print(format_kv(lines, title="Telemetry"))


def _print_data_path(
    plan,
    schema,
    engine: str,
    seed: int,
    workers: int = 0,
    registry=None,
) -> None:
    """Execute one real synthetic batch through the selected data-path engine."""
    graphs = plan.graph_set
    batch = SyntheticCriteoDataset(schema, seed=seed).batch(graphs.rows, index=0)
    parallel = None
    arena = None
    extra: dict[str, object] = {}
    if workers > 0:
        parallel = ParallelEngine(
            graphs,
            workers=workers,
            metrics=EngineMetrics(registry),
        )

        def run_once():
            parallel.execute(batch)

        label = f"parallel ({workers} workers)"
    elif engine == "compiled":
        arena = BufferArena()
        programs = compile_plan(plan, arena=arena, rows=graphs.rows)

        def run_once():
            for program in programs.values():
                program.execute(batch)

        label = engine
        extra["program"] = (
            f"{sum(p.num_ops for p in programs.values())} ops in "
            f"{sum(p.num_steps for p in programs.values())} fused steps "
            f"(max degree {max(p.max_fusion_degree for p in programs.values())})"
        )
    else:

        def run_once():
            execute_graph_set(graphs, batch)

        label = engine
        extra["program"] = f"{sum(len(g.ops) for g in graphs)} ops, one dispatch each"
    try:
        run_once()  # warmup: first execution pays compilation/arena growth
        reps = 5
        start = time.perf_counter()
        for _ in range(reps):
            run_once()
        per_batch_s = (time.perf_counter() - start) / reps
        if parallel is not None:
            info = parallel.summary()
            extra["program"] = (
                f"{info['steps']} fused steps over {parallel.num_shards} shards "
                f"{parallel.shard_sizes()}"
            )
            busy = ", ".join(
                f"w{i} {frac:.2f}"
                for i, frac in sorted(parallel.worker_busy_fractions().items())
            )
            extra["worker busy fractions"] = busy or "n/a"
            extra["shm bytes in flight"] = parallel.shm_bytes_in_flight()
        lines = {
            "engine": label,
            **extra,
            "batch rows": graphs.rows,
            "latency (ms/batch)": round(per_batch_s * 1e3, 3),
            "throughput (batches/s)": round(1.0 / per_batch_s, 1),
        }
        if arena is not None:
            stats = arena.stats()
            lines["arena"] = (
                f"{stats['pooled_bytes']} pooled bytes, hit rate "
                f"{stats['hit_rate']:.2f}, {stats['evicted_blocks']} evictions"
            )
        print(format_kv(lines, title="Functional data path"))
    finally:
        if parallel is not None:
            parallel.close()


def cmd_plan(args) -> int:
    _check_clobber(args.save_json, args.force)
    graphs, schema, workload = _workload(args)
    planner = _make_planner(args, workload)
    plan = planner.plan(graphs)
    report = planner.evaluate(plan)
    print(
        format_kv(
            {
                "workload": _describe_workload(args, workload),
                "mapping strategy": plan.mapping.strategy,
                "fusion": "on" if plan.fusion_enabled else "off",
                "kernels per GPU": plan.num_kernels_per_gpu(),
                "input comm bytes/iter": plan.input_comm_bytes,
                "iteration (us)": report.iteration_us,
                "ideal iteration (us)": workload.ideal_iteration_us(),
                "training slowdown": report.training_slowdown,
                "throughput (samples/s)": report.throughput,
            },
            title="RAP plan",
        )
    )
    if args.gantt:
        print()
        print(render_gantt(report.cluster_result.per_gpu[0]))
    if args.emit_code:
        Path(args.emit_code).write_text(generate_plan_module(plan))
        print(f"\ngenerated plan module -> {args.emit_code}")
    if args.emit_trace:
        Path(args.emit_trace).write_text(to_chrome_trace(report.cluster_result))
        print(f"chrome trace -> {args.emit_trace}")
    if args.save_json:
        save_plan(args.save_json, plan)
        print(f"plan artifact -> {args.save_json}")
    _print_cache_stats(planner)
    return 0


def _check_resume_compat(snapshot, specs, args, drift_schedule=(), shadow=None) -> None:
    """Refuse to resume under a configuration the checkpoint was not cut for.

    Resumption is only bit-identical when the seed, injection schedule, and
    workload shape match the killed process; anything else would silently
    diverge from the uninterrupted run.
    """
    state = snapshot.state
    echo = state.get("injector", {})
    if echo.get("seed") is not None and echo["seed"] != args.seed:
        raise ValueError(
            f"--resume: checkpoint was cut with seed {echo['seed']}, got --seed {args.seed}"
        )
    saved_specs = [
        (s["kind"], s["rate"], s["magnitude"], s["persistence"])
        for s in echo.get("specs", [])
    ]
    live_specs = [(s.kind, s.rate, s.magnitude, s.persistence) for s in specs]
    if saved_specs and saved_specs != live_specs:
        raise ValueError("--resume: --inject schedule differs from the checkpointed run")
    saved_drift = state.get("drift_schedule", [])
    live_drift = [d.to_dict() for d in drift_schedule]
    if saved_drift and saved_drift != live_drift:
        raise ValueError("--resume: --drift schedule differs from the checkpointed run")
    wl = state.get("workload", {})
    if wl.get("local_batch") is not None and wl["local_batch"] != args.batch:
        raise ValueError(
            f"--resume: checkpoint batch {wl['local_batch']} != --batch {args.batch}"
        )
    shrinks = sum(
        1 for m in state.get("membership", []) if int(m.get("survivors", 0)) >= 1
    )
    requested = (
        len(_parse_fleet(args.fleet)) if getattr(args, "fleet", None) else args.gpus
    )
    if wl.get("num_gpus") is not None and wl["num_gpus"] != requested - shrinks:
        raise ValueError(
            f"--resume: checkpoint fleet ({wl['num_gpus']} GPUs after {shrinks} "
            f"loss(es)) is inconsistent with the requested {requested} GPU(s)"
        )
    # Shadow promotion changes the replan trajectory, so resuming with a
    # different shadow configuration than the checkpoint's would diverge.
    saved_shadow = state.get("shadow")
    if saved_shadow is not None and shadow is None:
        raise ValueError(
            "--resume: checkpoint was cut with shadow planning enabled; pass --shadow"
        )
    if saved_shadow is None and shadow is not None:
        raise ValueError(
            "--resume: checkpoint was cut without shadow planning; drop --shadow"
        )
    if saved_shadow is not None and saved_shadow.get("config") != shadow.config.to_dict():
        raise ValueError(
            "--resume: shadow guardrail configuration differs from the checkpointed run"
        )


def _make_shadow(args) -> ShadowPlanner | None:
    """Build the shadow promotion loop from ``--shadow`` (DESIGN.md §15)."""
    shadow_flags = ("promote_margin", "probation_iters", "rollback_threshold")
    if not args.shadow:
        set_flags = [f for f in shadow_flags if getattr(args, f) is not None]
        if set_flags:
            raise ValueError(f"--{set_flags[0].replace('_', '-')} requires --shadow")
        return None
    overrides = {
        flag: getattr(args, flag)
        for flag in shadow_flags
        if getattr(args, flag) is not None
    }
    config = ShadowConfig(**{**ShadowConfig().to_dict(), **overrides})
    return ShadowPlanner(config=config)


def _print_shadow_summary(runtime) -> None:
    shadow = runtime.shadow
    if shadow is None:
        return
    counters = shadow.counters()
    lines = {
        "candidates evaluated": counters["candidates_evaluated"],
        "promotions": counters["promotions"],
        "commits / rollbacks / aborts": f"{counters['commits']} / "
        f"{counters['rollbacks']} / {counters['aborts']}",
        "suppressed triggers": counters["suppressed_triggers"],
        "state": "in probation" if shadow.in_probation else "idle",
    }
    if shadow.last_predicted_win is not None:
        lines["last predicted win"] = f"{shadow.last_predicted_win:.1%}"
    if shadow.last_realized_win is not None:
        lines["last realized win"] = f"{shadow.last_realized_win:.1%}"
    print()
    print(format_kv(lines, title="Shadow promotion"))


def _make_feeder(args, telemetry) -> tuple[PipelinedFeeder | None, IngestMetrics | None]:
    """Build the streaming-ingest feeder from ``--source`` (DESIGN.md §14)."""
    ingest_flags = ("overload_policy", "queue_capacity", "ingest_workers", "ingest_depth")
    if not args.source:
        set_flags = [f for f in ingest_flags if getattr(args, f) is not None]
        if set_flags:
            raise ValueError(
                f"--{set_flags[0].replace('_', '-')} requires --source"
            )
        return None, None
    src = build_source(args.source, seed=args.seed)
    rows = src.rows_per_batch
    if args.verify_data > 0 and rows is not None and rows != args.batch:
        raise ValueError(
            f"--verify-data checks the plan on ingested batches, but the source "
            f"yields {rows}-row batches while --batch is {args.batch}; align them"
        )
    metrics = IngestMetrics(telemetry.registry if telemetry is not None else None)
    queue = QueueConfig(
        capacity=args.queue_capacity if args.queue_capacity is not None else 4,
        policy=args.overload_policy if args.overload_policy is not None else "block",
    )
    feeder = PipelinedFeeder(
        src,
        depth=args.ingest_depth if args.ingest_depth is not None else 2,
        workers=args.ingest_workers if args.ingest_workers is not None else 1,
        queue=queue,
        metrics=metrics,
    )
    return feeder, metrics


def _print_ingest_summary(runtime, metrics: IngestMetrics | None) -> None:
    if metrics is None:
        return
    stalls = {
        "producer": metrics.producer_stall_ratio.value,
        "consumer": metrics.consumer_stall_ratio.value,
    }
    print()
    print(
        format_kv(
            {
                "source": runtime.feeder.produce.describe()
                if hasattr(runtime.feeder.produce, "describe")
                else "custom",
                "batches ingested": runtime.batches_ingested,
                "source epochs": runtime.ingest_epochs,
                "queue peak depth": int(metrics.queue_peak_depth.value),
                "drops / spills": f"{int(metrics.drops_total.value)} / "
                f"{int(metrics.spills_total.value)}",
                "stall ratios": f"producer {stalls['producer']:.3f}, "
                f"consumer {stalls['consumer']:.3f}",
            },
            title="Streaming ingest",
        )
    )


def cmd_run(args) -> int:
    _check_clobber(args.save_report, args.force)
    if args.resume and not args.checkpoint_dir:
        raise ValueError("--resume requires --checkpoint-dir")
    graphs, schema, workload = _workload(args)
    specs = [_parse_inject(s) for s in args.inject or []]
    drift_schedule = [_parse_drift(s) for s in args.drift or []]
    telemetry = _make_telemetry(args)
    shadow = _make_shadow(args)
    feeder, ingest_metrics = _make_feeder(args, telemetry)
    verifier = (
        DataPathVerifier(
            schema,
            every=args.verify_data,
            seed=args.seed,
            workers=args.engine_workers,
        )
        if args.verify_data > 0
        else None
    )

    checkpoints = None
    journal = None
    if args.checkpoint_dir:
        checkpoints = CheckpointManager(args.checkpoint_dir)
        journal = RunJournal(Path(args.checkpoint_dir) / "journal.jsonl")

    start = 0
    report = None
    try:
        if args.resume:
            snapshot = checkpoints.latest()
            if snapshot is None:
                raise ValueError(
                    f"--resume: no valid checkpoint under {args.checkpoint_dir}"
                )
            _check_resume_compat(snapshot, specs, args, drift_schedule, shadow)
            runtime, report, start = FaultTolerantRuntime.restore(
                snapshot,
                graphs,
                workload,
                lambda wl: _make_planner(args, wl),
                injector=FaultInjector(specs, seed=args.seed),
                journal=journal,
                telemetry=telemetry,
                drift_schedule=drift_schedule or None,
                verifier=verifier,
                feeder=feeder,
                shadow=shadow,
            )
            if start >= args.iterations:
                raise ValueError(
                    f"--resume: checkpoint is already at iteration {start}; "
                    f"nothing left of --iterations {args.iterations}"
                )
        else:
            planner = _make_planner(args, workload)
            _bind_cache_metrics(planner, telemetry)
            plan = load_plan(args.load_plan, workload, graphs) if args.load_plan else None
            runtime = FaultTolerantRuntime(
                planner,
                graphs,
                plan=plan,
                injector=FaultInjector(specs, seed=args.seed),
                journal=journal,
                telemetry=telemetry,
                drift_schedule=drift_schedule,
                verifier=verifier,
                feeder=feeder,
                shadow=shadow,
            )
        _bind_cache_metrics(runtime.planner, telemetry)
        print(
            format_kv(
                {
                    "workload": _describe_workload(args, runtime.workload),
                    "fault injection": ", ".join(f"{s.kind}@{s.rate}" for s in specs) or "off",
                    "seed": args.seed,
                    "resumed at iteration": start if args.resume else "n/a (fresh run)",
                    "predicted exposed (us)": runtime.plan.predicted_exposed_us,
                },
                title="Fault-tolerant run",
            )
        )
        try:
            report = runtime.run(
                args.iterations - start,
                start_iteration=start,
                report=report,
                checkpoints=checkpoints,
                checkpoint_every=args.checkpoint_every if checkpoints else 0,
                kill_after=args.kill_after_iter,
            )
        except SimulatedKill as exc:
            print(
                f"rap-repro: killed after iteration {exc.iteration} (simulated crash); "
                "rerun with --resume to continue",
                file=sys.stderr,
            )
            return 3
    finally:
        if feeder is not None:
            feeder.close()
        if verifier is not None:
            verifier.close()
        if journal is not None:
            journal.close()
    print()
    print(report.summary())
    _print_shadow_summary(runtime)
    _print_ingest_summary(runtime, ingest_metrics)
    # The data-path block reports measured wall-clock, so it only appears
    # when the engine or verification was explicitly requested; the
    # default output stays byte-reproducible under a fixed seed.
    if args.engine != "naive" or args.verify_data > 0 or args.engine_workers > 0:
        print()
        _print_data_path(
            runtime.plan,
            schema,
            args.engine,
            args.seed,
            workers=args.engine_workers,
            registry=telemetry.registry if telemetry is not None else None,
        )
    if runtime.verifier is not None and runtime.verifier.history:
        checks = runtime.verifier.history
        print(
            f"\ndata-path verification: {sum(1 for v in checks if v.ok)}/{len(checks)} "
            "check(s) bit-identical to the naive executor"
        )
    if args.save_report:
        save_plan(args.save_report, runtime.plan, resilience=report.to_dict())
        print(f"\nplan + resilience report -> {args.save_report}")
    _print_cache_stats(runtime.planner)
    if telemetry is not None:
        artifacts = telemetry.write_artifacts(step=args.iterations)
        if artifacts:
            print(f"\ntelemetry artifacts -> {args.metrics_dir}")
    _print_telemetry_summary(telemetry)
    return 0


#: Per-iteration noise records the journal timeline hides unless --all.
_JOURNAL_NOISE = ("transition", "data_verify")


def _journal_event_line(record: dict) -> str:
    record_type = record["type"]
    iteration = record.get("iteration")
    prefix = f"iter {iteration:>4}" if iteration is not None else " " * 9
    detail = ""
    if record_type == "run":
        detail = f"{record.get('num_iterations', '?')} iteration(s)"
    elif record_type == "resume":
        detail = f"from {record.get('checkpoint', '?')}"
    elif record_type in ("replan", "recalibrate"):
        detail = f"reason {record.get('reason', '?')}, epoch {record.get('plan_epoch', '?')}"
    elif record_type == "shadow_eval":
        verdict = "promote" if record.get("promote") else "decline"
        detail = (
            f"{verdict}: win {record.get('predicted_win', 0):+.1%} "
            f"(required {record.get('required_win', 0):.1%}, "
            f"trigger {record.get('reason', '?')})"
        )
    elif record_type == "promotion":
        detail = (
            f"epoch {record.get('from_epoch', '?')} -> {record.get('plan_epoch', '?')}, "
            f"predicted win {record.get('predicted_win', 0):+.1%}, "
            f"anchor {record.get('anchor') or 'in-memory'}"
        )
    elif record_type == "promotion_result":
        outcome = record.get("outcome", "?")
        realized = record.get("realized_win")
        detail = f"{outcome} after {record.get('probation_len', '?')} iteration(s)"
        if realized is not None:
            detail += f", realized win {realized:+.1%}"
    elif record_type == "membership":
        detail = (
            f"lost GPU {record.get('lost_gpu', '?')}, "
            f"{record.get('survivors', '?')} survivor(s)"
        )
    elif record_type == "checkpoint":
        detail = str(record.get("path", ""))
    elif record_type == "kill":
        detail = "simulated crash"
    return f"{prefix}  {record_type:<17} {detail}".rstrip()


def cmd_journal(args) -> int:
    path = Path(args.path)
    if path.is_dir():
        path = path / "journal.jsonl"
    if not path.exists():
        raise ValueError(f"no journal at {path}")
    records, flaws = RunJournal.scan(path)
    errors, warnings = validate_records(records)

    counts = Counter(r.get("type", "?") for r in records)
    print(
        format_table(
            ["record type", "count"],
            [[name, counts[name]] for name in sorted(counts)],
            title=f"Journal {path} ({len(records)} records)",
        )
    )

    timeline = [
        r for r in records
        if args.all or r.get("type") not in _JOURNAL_NOISE
    ]
    if timeline:
        print()
        hidden = len(records) - len(timeline)
        title = "Control-plane timeline"
        if hidden:
            title += f" ({hidden} per-iteration record(s) hidden; --all shows them)"
        print(title)
        for record in timeline:
            print("  " + _journal_event_line(record))

    status = 0
    for flaw in flaws:
        if flaw.kind == "torn_tail":
            print(
                f"\nnote: torn tail at line {flaw.line} (crash mid-append; "
                f"expected after a kill): {flaw.snippet!r}"
            )
        else:
            print(
                f"rap-repro: journal: corrupt record at line {flaw.line}: "
                f"{flaw.snippet!r}",
                file=sys.stderr,
            )
            status = 2
    for warning in warnings:
        print(f"\nwarning: {warning}")
    for error in errors:
        print(f"rap-repro: journal: {error}", file=sys.stderr)
        status = 2
    if status == 0:
        print("\njournal OK")
    return status


def cmd_sweep(args) -> int:
    from .forge import SweepConfig, sweep, write_scorecard

    _check_clobber(args.out, args.force)
    config = SweepConfig(
        seeds=args.seeds,
        start_seed=args.start_seed,
        iterations=args.iterations,
        timeout_s=args.timeout,
        jobs=args.jobs,
        triage_dir=Path(args.triage_dir) if args.triage_dir else None,
    )
    scorecard = sweep(config, log=lambda message: print(f"sweep: {message}"))
    path = write_scorecard(scorecard, args.out)
    rows = [
        [name, dim["value"], f"{dim['op']} {dim['threshold']}",
         "pass" if dim["pass"] else "FAIL"]
        for name, dim in scorecard["dimensions"].items()
    ]
    print()
    print(
        format_table(
            ["dimension", "value", "gate", "verdict"],
            rows,
            title=f"Robustness scorecard ({scorecard['admission']['admitted']} scenarios)",
        )
    )
    print(f"\nscorecard -> {path}")
    if scorecard["reproducers"]:
        print(f"minimized reproducers -> {args.triage_dir} "
              f"({len(scorecard['reproducers'])} scenario(s))")
    if not scorecard["pass"]:
        print("rap-repro: sweep: one or more robustness gates failed", file=sys.stderr)
        return 4
    return 0


def cmd_compare(args) -> int:
    graphs, schema, workload = _workload(args)
    rap = RapPlanner(workload).plan_and_evaluate(graphs)
    rows = []
    for name, runner in (
        ("TorchArrow (CPU)", run_torcharrow_baseline),
        ("Sequential GPU", run_sequential_baseline),
        ("CUDA stream", run_cuda_stream_baseline),
        ("MPS", run_mps_baseline),
    ):
        report = runner(graphs, workload)
        rows.append([name, report.iteration_us, report.throughput, rap.throughput / report.throughput])
    rows.append(["RAP", rap.iteration_us, rap.throughput, 1.0])
    ideal = workload.ideal_throughput()
    rows.append(["Ideal", workload.ideal_iteration_us(), ideal, rap.throughput / ideal])
    print(
        format_table(
            ["system", "iteration (us)", "throughput (samples/s)", "RAP speedup"],
            rows,
            title="P" + _describe_workload(args, workload)[1:],
        )
    )
    return 0


def cmd_experiments(args) -> int:
    from .experiments.runner import run_all

    run_all(quick=args.quick)
    return 0


def cmd_predictor(args) -> int:
    from .experiments import table5

    results = table5.run(num_samples=args.samples, seed=args.seed)
    print(table5.render(results))
    return 0


def cmd_serve(args) -> int:
    specs = parse_tenant_specs(args.tenants)
    service = PreprocessingService(
        args.service_root,
        num_gpus=args.gpus,
        fair_share=args.fair_share,
        max_concurrent=args.max_concurrent,
        checkpoint_every=args.checkpoint_every,
        telemetry=not args.no_telemetry,
    )
    for spec in specs:
        service.submit(spec)
    started = time.perf_counter()
    summary = service.run()
    elapsed = time.perf_counter() - started
    states = Counter(entry["state"] for entry in summary.jobs)
    print(
        format_kv(
            {
                "tenants": ", ".join(s.name for s in specs),
                "fleet": f"{args.gpus} GPUs, fair-share {'on' if args.fair_share else 'off'}",
                "service ticks": summary.ticks,
                "outcomes": ", ".join(f"{k}={v}" for k, v in sorted(states.items())),
                "plan reuse": (
                    f"{summary.reuse['hits']} invariant hit(s), "
                    f"{summary.plan_cache['hits']} exact hit(s)"
                ),
                "wall time": f"{elapsed:.2f}s",
            },
            title="Preprocessing service",
        )
    )
    print()
    for line in summary.lines():
        print(line)
    print(f"\nservice root: {service.root}")
    if args.save_summary:
        Path(args.save_summary).write_text(
            _json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"summary written to {args.save_summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rap-repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="search and inspect a RAP co-running plan")
    _add_workload_args(p_plan)
    p_plan.add_argument("--mapping", default="rap", choices=("rap", "data_parallel", "data_locality"))
    p_plan.add_argument("--no-fusion", action="store_true", help="disable horizontal fusion")
    p_plan.add_argument("--gantt", action="store_true", help="print an ASCII Gantt of GPU 0")
    p_plan.add_argument("--emit-code", metavar="FILE", help="write the generated plan module")
    p_plan.add_argument("--emit-trace", metavar="FILE", help="write a Chrome trace JSON")
    p_plan.add_argument("--save-json", metavar="FILE", help="write a JSON plan artifact")
    _add_fast_path_args(p_plan)
    p_plan.set_defaults(fn=cmd_plan)

    p_run = sub.add_parser("run", help="execute a plan through the fault-tolerant runtime")
    _add_workload_args(p_run)
    p_run.add_argument("--iterations", type=int, default=20,
                       help="number of training iterations to execute (default 20)")
    p_run.add_argument("--inject", metavar="KIND=RATE[:MAG[:PERSIST]]", action="append",
                       help="inject faults of KIND at RATE per iteration; repeatable. "
                            f"Kinds: {', '.join(FAULT_KINDS)}")
    p_run.add_argument("--load-plan", metavar="FILE", help="load a JSON plan artifact "
                       "instead of searching a fresh plan")
    p_run.add_argument("--save-report", metavar="FILE",
                       help="write the plan plus the resilience report as JSON")
    p_run.add_argument("--checkpoint-dir", metavar="DIR",
                       help="write iteration-consistent checkpoints and an append-only "
                            "run journal under DIR")
    p_run.add_argument("--checkpoint-every", type=int, default=5, metavar="N",
                       help="checkpoint cadence in iterations (default 5; 0 disables)")
    p_run.add_argument("--resume", action="store_true",
                       help="resume from the newest valid checkpoint in --checkpoint-dir "
                            "(bit-identical to an uninterrupted run under the same seed)")
    p_run.add_argument("--kill-after-iter", type=int, metavar="K",
                       help="simulate a hard crash after iteration K-1 completes "
                            "(exit code 3; for resume testing)")
    p_run.add_argument("--drift", metavar="OP=FACTOR[:START[:END]]", action="append",
                       help="inject per-op-type latency drift: kernels of OP run "
                            "FACTOR x their modeled latency from iteration START "
                            "(default 0) until END (exclusive); repeatable. The "
                            "telemetry calibration loop detects and absorbs it")
    p_run.add_argument("--metrics-dir", metavar="DIR",
                       help="write telemetry artifacts (metrics.prom, metrics.jsonl, "
                            "trace.json) under DIR")
    p_run.add_argument("--engine", choices=("naive", "compiled"), default="naive",
                       help="data-path engine for the post-run functional batch "
                            "execution: op-by-op naive executor or the compiled "
                            "fused engine (default naive)")
    p_run.add_argument("--verify-data", type=int, default=0, metavar="N",
                       help="every N iterations, execute a real synthetic batch "
                            "through the compiled engine and cross-check "
                            "bit-identity against the naive executor (0 = off)")
    p_run.add_argument("--engine-workers", type=int, default=0, metavar="N",
                       help="execute the functional data path (and --verify-data "
                            "checks) through the multi-core sharded engine with N "
                            "worker processes over shared-memory arenas "
                            "(0 = in-process, the default)")
    p_run.add_argument("--shadow", action="store_true",
                       help="attach the shadow promotion loop: continuously search "
                            "candidate plans against calibrated costs, promote only "
                            "when the predicted exposed-latency win clears the "
                            "guardrail, and auto-rollback a promotion whose realized "
                            "throughput regresses during probation (DESIGN.md §15)")
    p_run.add_argument("--promote-margin", type=float, default=None, metavar="FRAC",
                       help="minimum predicted exposed-latency win to promote a "
                            "shadow candidate (default 0.10); requires --shadow")
    p_run.add_argument("--probation-iters", type=int, default=None, metavar="N",
                       help="iterations a promoted plan is monitored before "
                            "committing (default 5); requires --shadow")
    p_run.add_argument("--rollback-threshold", type=float, default=None, metavar="FRAC",
                       help="tolerated realized iteration-latency regression during "
                            "probation before automatic rollback (default 0.10); "
                            "requires --shadow")
    p_run.add_argument("--no-telemetry", action="store_true",
                       help="disable metrics, tracing, and online calibration; the "
                            "run is bit-identical to one without the subsystem")
    p_run.add_argument("--source", metavar="SPEC[,SPEC...]",
                       help="stream batches from URL-style ingest source(s) "
                            "(csv://, jsonl://, synthetic://, "
                            "replay://; several comma-joined specs sample by "
                            "their weight= params); one batch is pulled per "
                            "iteration through the pipelined feeder, wrapping "
                            "into a new epoch at source end (DESIGN.md §14)")
    p_run.add_argument("--overload-policy", choices=OVERLOAD_POLICIES, default=None,
                       help="backpressure-queue policy when producers outrun "
                            "training: block (default), drop_oldest, or "
                            "spill_to_disk; requires --source")
    p_run.add_argument("--queue-capacity", type=int, default=None, metavar="N",
                       help="backpressure queue capacity in batches (default 4); "
                            "requires --source")
    p_run.add_argument("--ingest-workers", type=int, default=None, metavar="N",
                       help="producer pool size of the ingest feeder (default 1); "
                            "requires --source")
    p_run.add_argument("--ingest-depth", type=int, default=None, metavar="N",
                       help="max batches in flight ahead of training (default 2); "
                            "requires --source")
    _add_fast_path_args(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_journal = sub.add_parser(
        "journal",
        help="pretty-print and validate a run journal",
    )
    p_journal.add_argument("path",
                           help="journal file, or a --checkpoint-dir containing "
                                "journal.jsonl")
    p_journal.add_argument("--all", action="store_true",
                           help="include per-iteration ladder/verification records "
                                "in the timeline")
    p_journal.set_defaults(fn=cmd_journal)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a forge scenario sweep and publish the robustness scorecard",
    )
    p_sweep.add_argument("--seeds", type=int, default=100,
                         help="number of scenario seeds to expand (default 100)")
    p_sweep.add_argument("--start-seed", type=int, default=0,
                         help="first seed of the range (default 0)")
    p_sweep.add_argument("--iterations", type=int, default=None,
                         help="override every scenario's iteration count "
                              "(voids the seed-replay audit; for smoke runs)")
    p_sweep.add_argument("--jobs", type=int, default=0,
                         help="concurrent isolated scenario processes "
                              "(default 0 = run inline in this process)")
    p_sweep.add_argument("--timeout", type=float, default=300.0, metavar="SECONDS",
                         help="per-scenario hard timeout when --jobs > 0 (default 300)")
    p_sweep.add_argument("--out", metavar="FILE", default="BENCH_scenarios.json",
                         help="scorecard output path (default BENCH_scenarios.json)")
    p_sweep.add_argument("--triage-dir", metavar="DIR",
                         help="shrink each failing scenario to a minimal reproducer "
                              "JSON under DIR")
    p_sweep.add_argument("--force", action="store_true",
                         help="overwrite an existing scorecard file")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="RAP vs the four baselines")
    _add_workload_args(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_exp = sub.add_parser("experiments", help="regenerate every table and figure")
    p_exp.add_argument("--quick", action="store_true")
    p_exp.set_defaults(fn=cmd_experiments)

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant preprocessing service on one fleet"
    )
    p_serve.add_argument(
        "--tenants", required=True, metavar="SPEC[,SPEC...]",
        help="tenant specs NAME[:key=val...] separated by commas; keys: plan, "
             "batch, class (prod|standard|best_effort), deadline "
             "(strict|relaxed|none), arrive, iters, seed, faults, kind, rename",
    )
    p_serve.add_argument("--gpus", type=int, default=2, help="fleet size (default 2)")
    p_serve.add_argument(
        "--fair-share", default=True, action=argparse.BooleanOptionalAction,
        help="carve leftover capacity weighted max-min between tenants (default on)",
    )
    p_serve.add_argument(
        "--max-concurrent", type=int, default=None, metavar="N",
        help="cap on concurrently admitted tenants (default unbounded)",
    )
    p_serve.add_argument(
        "--service-root", default="service_root", metavar="DIR",
        help="root for per-tenant journals, metrics, checkpoints, and caches",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="per-tenant checkpoint cadence in iterations (default off)",
    )
    p_serve.add_argument(
        "--no-telemetry", action="store_true",
        help="disable per-tenant telemetry sessions",
    )
    p_serve.add_argument("--save-summary", metavar="FILE",
                         help="write the service summary as JSON")
    p_serve.set_defaults(fn=cmd_serve)

    p_pred = sub.add_parser("predictor", help="train the latency predictor (Table 5)")
    p_pred.add_argument("--samples", type=int, default=11_000)
    p_pred.add_argument("--seed", type=int, default=7,
                        help="seed for predictor training-data generation")
    p_pred.set_defaults(fn=cmd_predictor)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PlanLoadError as exc:
        print(f"rap-repro: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"rap-repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
