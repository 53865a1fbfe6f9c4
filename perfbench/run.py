"""Benchmark of the RAP reproduction: four closed-loop workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload plan-cold --seed 0 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of one workload; ``--trace 1``
runs the workload untraced and then traced, and prints the per-layer split
with the tracing overhead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Everything above
it is a human-readable report with the sample counts, output checks and
host facts. Artifacts (full results, Chrome trace of the traced run,
recorded digests) go to ``perfbench/out/``.

This file is both the launcher and, with ``--role``, the workload process
it starts: every workload runs in a fresh interpreter, so set-up time
includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3
#: Seconds of units between two timings of the host-speed reference.
SAMPLE_EVERY_S = 0.1
#: Reference timings averaged for the units between two of them.
SMOOTH_POINTS = 6
#: How units_per_s and unit_ms_p50 time a unit, per Workload.timing.
TIMING = {
    "wall": "its wall time",
    "reference": "its wall time scaled to a quiet host by the reference timed around it",
    "fastest": "the fastest repetition of its work in the run",
}
CHILD_TIMEOUT_S = 170

#: Modules each workload imports before set-up; import.s times exactly these.
IMPORTS = {
    "plan-cold": ("repro.core", "repro.dlrm", "repro.preprocessing.random_plans"),
    "train-faults": ("repro.core", "repro.dlrm", "repro.runtime", "repro.telemetry"),
    "train-drift": ("repro.core", "repro.dlrm", "repro.runtime", "repro.telemetry"),
    "prep-stream": ("repro.core", "repro.dlrm", "repro.ingest", "repro.preprocessing.parallel"),
}
WORKLOAD_NAMES = tuple(IMPORTS)

END_TO_END = (
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_samples_per_s", "samples/sim_s"),
)
PER_LAYER = (
    ("import.s", "s"),
    ("import.modules", "count"),
    ("planner.mapping_self_ms", "ms/unit"),
    ("planner.evaluate_calls", "count"),
    ("planner.fusion_self_ms", "ms/unit"),
    ("planner.fusion_memo_hit_ratio", "ratio"),
    ("planner.schedule_ms", "ms/unit"),
    ("planner.replan_ms", "ms/unit"),
    ("planner.replans", "count"),
    ("milp.solve_ms", "ms/unit"),
    ("milp.solves", "count"),
    ("milp.nodes", "count"),
    ("milp.time_limit_stops", "count"),
    ("milp.cache_hit_ratio", "ratio"),
    ("runtime.iteration_self_ms", "ms/unit"),
    ("runtime.faults", "count"),
    ("runtime.retries", "count"),
    ("runtime.ladder_transitions", "count"),
    ("runtime.crashes", "count"),
    ("gpusim.simulate_ms", "ms/unit"),
    ("gpusim.simulate_calls", "count"),
    ("calibration.correct_ms", "ms/unit"),
    ("calibration.correct_calls", "count"),
    ("calibration.records", "count"),
    ("calibration.drift_events", "count"),
    ("engine.execute_ms", "ms/unit"),
    ("engine.busy_max", "ratio"),
    ("engine.busy_mean", "ratio"),
    ("engine.shm_bytes_peak", "bytes"),
    ("ingest.wait_ms", "ms/unit"),
    ("ingest.queue_peak_depth", "count"),
    ("ingest.consumer_stall_ratio", "ratio"),
    ("ingest.produce_ms", "ms/unit"),
    ("ingest.producer_stall_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def p90_with_note(lat_ms: list[float]) -> tuple[float | None, str]:
    """The 90th percentile, or None with the reason it is not reported.

    Reported only with at least ten samples beyond it and when it lies
    inside one cost cluster: the 85th and 95th percentiles must sit within
    a factor 1.5 of each other, else the rank falls on a gap between
    clusters and the value would jump with tiny timing changes.
    """
    n = len(lat_ms)
    beyond = n - math.ceil(0.9 * n)
    if beyond < 10:
        return None, f"only {beyond} samples beyond it"
    q = statistics.quantiles(lat_ms, n=20)
    p85, p90, p95 = q[16], q[17], q[18]
    if p95 > 1.5 * p85:
        return None, f"between cost clusters (p85 {p85:.3f} ms, p95 {p95:.3f} ms)"
    return p90, f"{beyond} samples beyond it"


def host_normalized(lat_ms: list[float], points: list[tuple]) -> list[float]:
    """Unit times scaled to a quiet host, from the reference timed around them.

    ``points`` holds ``(k, seconds)``: the reference's time just before unit
    ``k``. The units between two consecutive points are divided by the mean
    reference time of the :data:`SMOOTH_POINTS` points around them, over
    :attr:`host.HostSpeed.QUIET_S`. One reference timing is short enough to
    land in or between bursts of interference; the mean over ~0.5 s is not.
    """
    import host

    times = [seconds for _, seconds in points]
    half = SMOOTH_POINTS // 2
    out: list[float] = []
    for j, ((a, _), (b, _)) in enumerate(zip(points, points[1:])):
        window = times[max(0, j + 1 - half):j + 1 + half]
        slowdown = sum(window) / (len(window) * host.HostSpeed.QUIET_S)
        out.extend(ms / slowdown for ms in lat_ms[a:b])
    return out


def fastest_repetition(lat_ms: list[float], keys: list) -> list[float]:
    """Each unit's time is the fastest time among the units with its key.

    Units with equal keys repeat identical work, spread over the run;
    interference from other tenants only ever adds time, so the fastest
    repetition is the one it spared. A unit with no repetition keeps its
    own time.
    """
    fastest: dict = {}
    for key, ms in zip(keys, lat_ms):
        fastest[key] = min(fastest.get(key, ms), ms)
    return [fastest[key] for key in keys]


def layer_metrics(tracer, counts: dict, units: int) -> dict:
    """The per-layer split: self/total ms per unit and counts over the region."""
    per_unit = 1000.0 / max(units, 1)
    c = tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "planner.mapping_self_ms": tracer.self_time("planner.mapping") * per_unit,
        "planner.evaluate_calls": tracer.calls("planner.evaluate"),
        "planner.fusion_self_ms": tracer.self_time("planner.fusion") * per_unit,
        "planner.fusion_memo_hit_ratio": ratio(
            c.get("planner.fusion_memo_hits", 0), c.get("planner.fusion_lookups", 0)
        ),
        "planner.schedule_ms": tracer.total("planner.schedule") * per_unit,
        "planner.replan_ms": tracer.total("planner.replan") * per_unit,
        "planner.replans": tracer.calls("planner.replan"),
        "milp.solve_ms": tracer.total("milp.solve") * per_unit,
        "milp.solves": c.get("milp.solves", 0),
        "milp.nodes": c.get("milp.nodes", 0),
        "milp.time_limit_stops": c.get("milp.time_limit_stops", 0),
        "milp.cache_hit_ratio": ratio(c.get("milp.cache_hits", 0), c.get("milp.lookups", 0)),
        "runtime.iteration_self_ms": tracer.self_time("runtime.iteration") * per_unit,
        "runtime.faults": counts.get("faults", 0),
        "runtime.retries": counts.get("retries", 0),
        "runtime.ladder_transitions": counts.get("ladder_transitions", 0),
        "runtime.crashes": counts.get("crashes", 0),
        "gpusim.simulate_ms": tracer.total("gpusim.simulate") * per_unit,
        "gpusim.simulate_calls": tracer.calls("gpusim.simulate"),
        "calibration.correct_ms": tracer.total("calibration.correct") * per_unit,
        "calibration.correct_calls": tracer.calls("calibration.correct"),
        "calibration.records": tracer.calls("calibration.record"),
        "calibration.drift_events": c.get("calibration.drift_events", 0),
        "engine.execute_ms": tracer.total("engine.execute") * per_unit,
        "engine.busy_max": counts.get("busy_max", 0.0),
        "engine.busy_mean": counts.get("busy_mean", 0.0),
        "engine.shm_bytes_peak": c.get("engine.shm_bytes_peak", 0),
        "ingest.wait_ms": tracer.total("ingest.next") * per_unit,
        "ingest.queue_peak_depth": counts.get("queue_peak_depth", 0),
        "ingest.consumer_stall_ratio": counts.get("consumer_stall_ratio", 0.0),
        "ingest.produce_ms": tracer.total("ingest.produce") * per_unit,
        "ingest.producer_stall_ratio": counts.get("producer_stall_ratio", 0.0),
    }


# ----------------------------------------------------------------------
# workload process
# ----------------------------------------------------------------------


def child_main(args) -> int:
    import importlib

    modules_before = len(sys.modules)
    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    import_s = time.monotonic() - args.spawned_at
    import_modules = len(sys.modules) - modules_before

    import host
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    try:
        workload.setup()
        n = workload.units()
        workload.region_started()
        setup_s = time.monotonic() - args.spawned_at
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        import gc

        # Collect set-up garbage now rather than inside the first units.
        gc.collect()
        latencies: list[float] = []
        failures: list[dict] = []
        by_reference = workload.timing == "reference"
        speed = host.HostSpeed() if by_reference else None
        # (k, seconds): the reference timed just before unit k.
        speed_points = [(0, speed.sample())] if by_reference else []
        since_sample = 0.0
        paused = 0.0
        cpu_before = host.cpu_times()
        if tracer is not None:
            tracer.begin()
        start = time.perf_counter()
        for k in range(n):
            t = time.perf_counter()
            try:
                workload.run_unit(k)
            except Exception as exc:  # noqa: BLE001 - a failed unit is a result
                failures.append({"unit": k, "error": f"{type(exc).__name__}: {exc}"})
                workload.recover(k, exc)
            done = time.perf_counter()
            latencies.append(done - t)
            workload.after_unit(k)
            since_sample += latencies[-1]
            if by_reference and (since_sample >= SAMPLE_EVERY_S or k == n - 1):
                speed_points.append((k + 1, speed.sample()))
                since_sample = 0.0
            paused += time.perf_counter() - done
        end = time.perf_counter()
        if tracer is not None:
            tracer.end()
        cpu_after = host.cpu_times()
        region_s = end - start - paused
        peak_rss = host.peak_rss_mb()
        result = workload.finish()
    finally:
        workload.close()

    lat_ms = [x * 1000.0 for x in latencies]
    p90, p90_note = p90_with_note(lat_ms)
    completed = n - len(failures)
    if by_reference:
        unit_ms = host_normalized(lat_ms, speed_points)
    elif workload.timing == "fastest":
        unit_ms = fastest_repetition(lat_ms, [workload.key(k) for k in range(n)])
    else:
        unit_ms = lat_ms
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": setup_s,
        "import_s": import_s,
        "import_modules": import_modules,
        "units": n,
        "failures": failures,
        "region_s": region_s,
        "timing": workload.timing,
        "interference": region_s / (sum(unit_ms) / 1000.0),
        "units_per_s": completed / (sum(unit_ms) / 1000.0),
        "unit_ms_p50": statistics.median(unit_ms),
        "wall_units_per_s": completed / region_s,
        "wall_unit_ms_p50": statistics.median(lat_ms),
        "unit_ms_p90": p90,
        "unit_ms_p90_note": p90_note,
        "peak_rss_mb": peak_rss,
        "steal_share": host.steal_share(cpu_before, cpu_after),
        "checks": [list(c) for c in result["checks"]],
        "digest": result["digest"],
        "digests": result.get("digests", {}),
        "sim_samples_per_s": result["sim_samples_per_s"],
        "counts": result["counts"],
    }
    if tracer is not None:
        from repro.telemetry import validate_chrome_trace

        layers = layer_metrics(tracer, result["counts"], n)
        layers["trace.coverage_ratio"] = tracer.covered(start, end) / region_s
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        document = tracer.chrome_trace()
        trace_path.write_text(json.dumps(document))
        try:
            validate_chrome_trace(document)
            trace_ok, trace_detail = True, f"{len(document['traceEvents'])} events"
        except ValueError as exc:
            trace_ok, trace_detail = False, str(exc)
        out["checks"].append(["chrome trace of host spans validates", trace_ok, trace_detail])
        out["layers"] = layers
        out["trace_file"] = str(trace_path.relative_to(ROOT))
        out["spans_dropped"] = tracer.dropped
    print(json.dumps(out))
    return 0


# ----------------------------------------------------------------------
# launcher
# ----------------------------------------------------------------------


def spawn(args, role: str, trace: int) -> dict:
    """Run one workload process and return its result."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One string-hash layout for every run, so set and dict iteration order
    # is not a source of run-to-run variation.
    env["PYTHONHASHSEED"] = "0"
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--spawned-at", repr(spawned_at),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process for {args.workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{role} process for {args.workload} printed no result")
    return json.loads(lines[-1])


def check_digests(result: dict) -> list:
    """Compare this run's output digests with those recorded by earlier runs."""
    path = OUT / "digests.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    keyed = {f"{result['workload']}/{k}": v for k, v in result["digests"].items()}
    if result["workload"] != "plan-cold":
        # A train or stream digest depends on the seed and the unit count.
        keyed[f"{result['workload']}/seed{result['seed']}/units{result['units']}"] = result["digest"]
    differing = sorted(k for k, v in keyed.items() if recorded.get(k, v) != v)
    recorded.update({k: v for k, v in keyed.items() if k not in recorded})
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    return [
        "output digest identical to earlier runs of the same seed",
        not differing,
        ", ".join(differing) or f"{len(keyed)} digest(s)",
    ]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(args, full: dict, metrics: dict, units: dict, extra: list[str], checks: list) -> None:
    print(f"perfbench {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<32} {_fmt(value):>14} {units[name]}")
    for line in extra:
        print(f"  {line}")
    for name, ok, detail in checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"  digest {full['digest']}")


def host_line(full: dict) -> tuple[str, dict]:
    import host

    facts = host.host_facts()
    absent = [m for m, present in facts["optional_modules"].items() if not present]
    present = [m for m, here in facts["optional_modules"].items() if here]
    return (
        f"host: nproc {facts['nproc']}, {facts['machine']}, python {facts['python']}, "
        f"numpy {facts['numpy']}, scipy {facts['scipy']}, "
        f"absent: {', '.join(absent) or 'none'}, present: {', '.join(present) or 'none'}, "
        f"steal {full['steal_share']:.2%} during the timed region"
    ), facts


def launcher_main(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no source tree at {ROOT / 'src' / 'repro'}; "
            "run from the root of a complete checkout",
            file=sys.stderr,
        )
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        base = spawn(args, "full", 0)
        full = spawn(args, "full", 1)
        checks = full["checks"] + [check_digests(base)]
        checks.append(["traced run repeats the untraced run's outputs",
                       base["digest"] == full["digest"], full["digest"][:16]])
        metrics = {"import.s": full["import_s"], "import.modules": full["import_modules"]}
        metrics.update(full["layers"])
        metrics["trace.overhead_ratio"] = full["units_per_s"] / base["units_per_s"]
        metrics = {name: metrics[name] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        extra = [
            f"untraced units_per_s {base['units_per_s']:.6g}, traced {full['units_per_s']:.6g}",
            f"chrome trace: {full['trace_file']} ({full['spans_dropped']} spans over the cap)",
        ]
    else:
        runs = [spawn(args, "setup", 0) for _ in range(SETUPS - 1)]
        full = spawn(args, "full", 0)
        runs.append(full)
        setups = [r["setup_s"] for r in runs]
        checks = full["checks"] + [check_digests(full)]
        metrics = {
            "setup_s": statistics.median(setups),
            "units_per_s": full["units_per_s"],
            "unit_ms_p50": full["unit_ms_p50"],
            "peak_rss_mb": full["peak_rss_mb"],
            "sim_samples_per_s": full["sim_samples_per_s"],
        }
        units = dict(END_TO_END)
        p90 = full["unit_ms_p90"]
        extra = [
            f"set-ups (s): {', '.join(f'{s:.3f}' for s in setups)}",
            f"units: {full['units']}; units_per_s and unit_ms_p50 (over {full['units']} "
            f"samples) time each unit by {TIMING[full['timing']]}; wall clock / that "
            f"= {full['interference']:.3f}",
            f"wall clock: {full['units']} units in {full['region_s']:.3f} s = "
            f"{full['wall_units_per_s']:.6g} units/s, median unit {full['wall_unit_ms_p50']:.6g} ms",
            f"unit_ms_p90 (wall clock): "
            f"{f'{p90:.6g} ms' if p90 is not None else 'not reported'} "
            f"({full['unit_ms_p90_note']})",
            f"fail_ratio: {len(full['failures'])}/{full['units']} = "
            f"{len(full['failures']) / full['units']:.6g}",
            "sim_samples_per_s is on the simulated clock (samples per simulated second)",
        ]
    for failure in full["failures"][:5]:
        extra.append(f"failed unit {failure['unit']}: {failure['error']}")
    line, facts = host_line(full)
    extra.append(line)
    report(args, full, metrics, units, extra, checks)

    correct = all(ok for _, ok, _ in checks)
    record = {
        "args": vars(args),
        "host": facts,
        "result": full,
        "metrics": metrics,
        "checks": checks,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": full["units"],
        "failed": len(full["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "full"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role is not None:
        return child_main(args)
    try:
        return launcher_main(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
