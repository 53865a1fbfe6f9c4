"""Reach audit: every function in ``src/repro`` runs in a recorded run or says why not.

Usage (from the root of a checkout)::

    python tools/reach.py

The tool runs each command in ``RUNS`` -- the examples, the CLI steps that
CI runs or the README documents, perfbench at ``--seconds 2`` and a few
benchmark files -- with ``tools/reach_hook`` on ``PYTHONPATH``. Its
``sitecustomize`` records the first call of every code object under
``src/repro`` in every process, forked parallel-engine workers and sweep
children included. The tool then lists every function and method in
``src/repro`` by AST and matches each on (file, first line). A decorated
function's code starts on its first decorator line, as CPython reports it.

It exits 0 when every function was reached or is kept in ``KEPT`` with one
of the named reasons, 1 when some function is neither or a ``KEPT`` entry
names no function, and 2 when a recorded run fails. ``KEPT`` is also the
allowlist of ``tests/test_no_test_only_code.py``, so each kept name is
justified in one place. The tool uses the standard library only.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
HOOK = Path(__file__).resolve().parent / "reach_hook"

_FAILURE = "failure path: runs only when an input, a process or a file is broken"
_SAFETY = "safety net: runs only when an object is copied or left unclosed, which no run does"
_ABSTRACT = "abstract base: every subclass overrides it, so it never runs itself"
_EXTENSION = (
    "extension path: runs only for a user-defined op type with no fused lowering, "
    "as tests/preprocessing/test_engine_leases.py defines"
)
_HARNESS = "test harness: suites in two or more test files check other code through it"
_REFERENCE = "reference that tests compare the production path against"
_PIN = "a CI-pinned suite, which changes only with the model it pins, reads it"
_PLAN_CHECK = "accessor through which tests/preprocessing check the Table-3 and random plans"
_METRIC = "standard regression metric kept beside the paper's Table-5 accuracy; tests/ml use it"
_PREDICTOR = (
    "the paper's learned-predictor planning path (§5); tests/test_integration.py "
    "plans with a fitted predictor"
)
_FIXTURE = "writes the on-disk inputs that the ingest runs and docs read"
_CI = "called only from a CI step's inline script, which the guard's static scan cannot see"

#: Reasons a function may stay although no recorded run reaches it, or
#: although no file outside the tests names it.
REASONS = (
    _FAILURE, _SAFETY, _ABSTRACT, _EXTENSION, _HARNESS, _REFERENCE, _PIN, _PLAN_CHECK,
    _METRIC, _PREDICTOR, _FIXTURE, _CI,
)

#: Keys are ``<path under src/repro>:<qualified name>``.
KEPT: dict[str, str] = {
    "core/capacity.py:OverlappingCapacityEstimator.measure": _REFERENCE,
    "core/capacity.py:OverlappingCapacityEstimator.measure.<locals>.extends": _REFERENCE,
    "core/cost_model.py:CoRunCost.is_contention_free": _HARNESS,
    "core/cost_model.py:CoRunCost.total_capacity_us": _HARNESS,
    "core/latency_predictor.py:PreprocessingLatencyPredictor.fingerprint": _PREDICTOR,
    "core/latency_predictor.py:PreprocessingLatencyPredictor.is_fitted": _PREDICTOR,
    "core/latency_predictor.py:PreprocessingLatencyPredictor.predict_kernel": _PREDICTOR,
    "core/latency_predictor.py:PreprocessingLatencyPredictor.predict_total": _PREDICTOR,
    "core/latency_predictor.py:kernel_family": _PREDICTOR,
    "core/serialization.py:PlanLoadError.__init__": _FAILURE,
    "core/serialization.py:resilience_from_json": _HARNESS,
    "dlrm/training.py:TrainingWorkload.heterogeneous": _HARNESS,
    "forge/audit.py:AuditFinding.to_dict": _FAILURE,
    "forge/audit.py:AuditResult.to_dict": _FAILURE,
    "forge/sweep.py:_failure_row": _FAILURE,
    "forge/triage.py:_shrink_candidates": _FAILURE,
    "forge/triage.py:minimize_scenario": _FAILURE,
    "forge/triage.py:reproduces_failure": _FAILURE,
    "gpusim/cluster.py:MultiGpuCluster.heterogeneous": _HARNESS,
    "gpusim/device.py:CoRunPolicy.effective": _HARNESS,
    "gpusim/kernel.py:KernelDesc.with_duration": _REFERENCE,
    "gpusim/trace.py:UtilizationTrace.segments": _HARNESS,
    "ingest/feeder.py:PipelinedFeeder.closed": _HARNESS,
    "ingest/feeder.py:_Failure.__init__": _FAILURE,
    "ingest/sources.py:BatchSource.__len__": _ABSTRACT,
    "ingest/sources.py:BatchSource.batch": _ABSTRACT,
    "ingest/sources.py:BatchSource.describe": _ABSTRACT,
    "ingest/sources.py:BatchSource.rows_per_batch": _ABSTRACT,
    "ingest/sources.py:_RowTableSource._load": _ABSTRACT,
    "ingest/sources.py:write_csv": _FIXTURE,
    "ingest/sources.py:write_jsonl": _FIXTURE,
    "ingest/sources.py:write_replay_log": _FIXTURE,
    "milp/model.py:MilpProblem.set_objective": _HARNESS,
    "ml/metrics.py:mape": _METRIC,
    "ml/metrics.py:r2_score": _METRIC,
    "preprocessing/data.py:SparseColumn.nnz": _HARNESS,
    "preprocessing/engine.py:_GenericStep.__init__": _EXTENSION,
    "preprocessing/engine.py:_GenericStep.run": _EXTENSION,
    "preprocessing/engine.py:compile_graph_set": _HARNESS,
    "preprocessing/executor.py:DeviceLostError.__init__": _FAILURE,
    "preprocessing/executor.py:KernelExecutionError.__init__": _FAILURE,
    "preprocessing/executor.py:KernelOOMError.__init__": _FAILURE,
    "preprocessing/executor.py:MissingColumnsError.__init__": _FAILURE,
    "preprocessing/graph.py:GraphSet.__getitem__": _PLAN_CHECK,
    "preprocessing/graph.py:GraphSet.consumers": _PLAN_CHECK,
    "preprocessing/graph.py:GraphSet.graphs_for_consumer": _PLAN_CHECK,
    "preprocessing/graph.py:GraphSet.kernels": _PLAN_CHECK,
    "preprocessing/ops.py:PreprocessingOp._params_key": _ABSTRACT,
    "preprocessing/ops.py:PreprocessingOp._transform": _ABSTRACT,
    "preprocessing/parallel.py:ParallelEngine.__enter__": _HARNESS,
    "preprocessing/parallel.py:ParallelEngine.__exit__": _HARNESS,
    "preprocessing/parallel.py:_cleanup_engine": _SAFETY,
    "preprocessing/parallel.py:_stage_heap_array": _EXTENSION,
    "runtime/executor.py:FaultTolerantRuntime.cpu_only": _HARNESS,
    "runtime/journal.py:RunJournal.__enter__": _HARNESS,
    "runtime/journal.py:RunJournal.__exit__": _HARNESS,
    "runtime/memo.py:IdentityMemo.__len__": _PIN,
    "runtime/memo.py:IdentityMemo.__reduce__": _SAFETY,
    "runtime/report.py:ResilienceReport.faults_by_epoch": _HARNESS,
    "telemetry/calibration.py:CalibratedPredictor.predict_total": _HARNESS,
    "telemetry/calibration.py:ResidualModel.samples_for": _HARNESS,
    "telemetry/calibration.py:SampleBatch.__iter__": _HARNESS,
    "telemetry/exposition.py:JsonlMetricsSink.read": _HARNESS,
    "telemetry/exposition.py:PrometheusParseError.__init__": _FAILURE,
    "telemetry/exposition.py:parse_prometheus_text": _CI,
    "telemetry/session.py:TelemetrySession.prometheus_text": _HARNESS,
    "telemetry/session.py:TelemetrySession.record_kernel_samples": _REFERENCE,
    "telemetry/spans.py:Tracer.__len__": _HARNESS,
    "telemetry/spans.py:Tracer.events": _HARNESS,
}

#: (name, bash script) pairs, run in order in one scratch directory. ``$ROOT``
#: is the checkout; ``rap`` is the CLI. A script that exits non-zero fails
#: the audit.
RUNS: tuple[tuple[str, str], ...] = (
    ("examples", 'for example in "$ROOT"/examples/*.py; do python "$example" > /dev/null; done'),
    # chaos: kill and resume, then a changed fault set is refused (exit 2)
    ("chaos kill and resume", """
args="run --plan 0 --gpus 2 --batch 512 --iterations 12 --seed 0 --inject kernel_failure=0.3 --inject plan_drift=0.1"
ckpt="--checkpoint-dir chaos-ckpt --checkpoint-every 4"
rap $args --save-report straight.json
status=0; rap $args $ckpt --kill-after-iter 8 || status=$?; test "$status" -eq 3
rap $args $ckpt --resume --save-report resumed.json
cmp straight.json resumed.json
status=0; rap $args $ckpt --resume --inject fused_oom=0.2 || status=$?; test "$status" -eq 2
"""),
    # telemetry
    ("telemetry example and validators", """
RAP_TELEMETRY_RUN_DIR=telemetry-artifacts python "$ROOT/examples/telemetry_run.py" > /dev/null
python - <<'EOF'
import json
from pathlib import Path
from repro.telemetry import parse_prometheus_text, validate_chrome_trace
metrics = Path("telemetry-artifacts/metrics")
assert "rap_replans_total" in parse_prometheus_text((metrics / "metrics.prom").read_text())
validate_chrome_trace(json.loads((metrics / "trace.json").read_text()))
EOF
"""),
    ("perfbench train-drift", 'python3 "$ROOT/perfbench/run.py" --workload train-drift --seed 0 --seconds 2 --trace 0'),
    ("perfbench train-faults", 'python3 "$ROOT/perfbench/run.py" --workload train-faults --seed 0 --seconds 2 --trace 0'),
    ("faulted run, telemetry on and off", """
args="run --plan 1 --iterations 300 --inject kernel_failure=0.1 --inject latency_overrun=0.1 --inject fused_oom=0.05 --inject plan_drift=0.05"
rap $args > /dev/null
rap $args --no-telemetry > /dev/null
"""),
    ("long faulted run with a streamed trace", """
rap run --plan 1 --iterations 300 --inject kernel_failure=0.1 --inject latency_overrun=0.1 \\
  --inject cpu_pool_crash=0.02 --inject fused_oom=0.05 --inject plan_drift=0.05 \\
  --metrics-dir all-faults > /dev/null
python -c 'import json; from repro.telemetry import validate_chrome_trace; validate_chrome_trace(json.load(open("all-faults/trace.json")))'
"""),
    # planner-speed
    ("fusion MILP and unfused plan smokes", "rap plan --random-plan --seed 8\nrap plan --plan 3 --no-fusion"),
    ("perfbench plan-cold traced", 'python3 "$ROOT/perfbench/run.py" --workload plan-cold --seed 0 --seconds 2 --trace 1'),
    # scenario-smoke and the nightly sweep's isolation and triage
    ("sweep", "rap sweep --seeds 10 --out sweep.json --force"),
    # --iterations 8 cuts all four scenarios to eight iterations, dropping the
    # scheduled faults and drift past the cut, so the audit admits every one
    ("short sweep", "rap sweep --seeds 4 --iterations 8 --out sweep-short.json --force"),
    ("isolated sweep with triage", "rap sweep --seeds 2 --start-seed 6 --jobs 2 --timeout 300 --out sweep-iso.json --triage-dir triage --force"),
    # ingest-smoke
    ("ingest fixtures and sources", """
python - <<'EOF'
from repro.ingest import source, write_csv, write_jsonl, write_replay_log
src = source("synthetic://kaggle?batch=512&batches=4&seed=7")
batches = [src.batch(i) for i in range(4)]
write_csv("day0.csv", batches)
write_jsonl("day0.jsonl", batches)
write_replay_log("run.replay.jsonl", batches, [0.0, 0.05, 0.15, 0.20])
EOF
rap run --plan 1 --gpus 2 --batch 512 --iterations 10 --source 'csv://day0.csv?batch=512' \\
  --overload-policy drop_oldest --queue-capacity 2 --verify-data 5 --metrics-dir csv-metrics
rap run --plan 1 --gpus 2 --batch 512 --iterations 8 --source 'replay://run.replay.jsonl?speed=4' \\
  --overload-policy spill_to_disk --metrics-dir replay-metrics
rap run --plan 1 --gpus 2 --batch 512 --iterations 10 \\
  --source 'synthetic://kaggle?batch=512&batches=4&io_delay_ms=5' \\
  --ingest-workers 2 --ingest-depth 4 --verify-data 5
rap run --plan 1 --gpus 2 --batch 512 --iterations 6 --source 'jsonl://day0.jsonl?batch=512'
rap run --plan 1 --gpus 2 --batch 512 --iterations 6 \\
  --source 'csv://day0.csv?batch=512&weight=2,synthetic://kaggle?batch=512&batches=4&seed=3'
python -c 'from pathlib import Path; from repro.telemetry import parse_prometheus_text; parse_prometheus_text(Path("csv-metrics/metrics.prom").read_text())'
"""),
    # data-path
    ("perfbench prep-stream", 'python3 "$ROOT/perfbench/run.py" --workload prep-stream --seed 0 --seconds 2 --trace 0'),
    ("parallel-verified run", "rap run --plan 1 --gpus 2 --batch 1024 --iterations 6 --engine-workers 2 --verify-data 2"),
    # service-smoke and the README's tenants
    ("service example and journals", """
RAP_SERVICE_RUN_DIR=service-artifacts python "$ROOT/examples/service_run.py" > /dev/null
for tenant in alice bob carol dave; do rap journal "service-artifacts/tenants/$tenant/journal.jsonl"; done
"""),
    ("serve", """
rap serve --gpus 2 --service-root svc --tenants \\
  'alice:plan=2:batch=2048:class=prod:deadline=relaxed:iters=10,bob:plan=0:batch=1024:class=best_effort:iters=12,carol:plan=2:batch=2048:deadline=strict:arrive=4:iters=6'
"""),
    # shadow-chaos
    ("shadow promotion and journal", """
rap run --plan 2 --gpus 4 --batch 2048 --iterations 14 --drift 'SigridHash=20:2' --drift 'MapId=20:6' \\
  --shadow --checkpoint-dir shadow-ckpt
rap journal shadow-ckpt
args="run --plan 2 --gpus 4 --batch 2048 --iterations 14 --drift SigridHash=20:2 --drift MapId=20:6"
status=0; rap $args --shadow --checkpoint-dir shadow-resume --kill-after-iter 6 || status=$?
test "$status" -eq 3
rap $args --shadow --checkpoint-dir shadow-resume --resume
"""),
    # README quick-starts
    ("plan cache, cold then warm", "rap plan --plan 3 --gpus 4 --plan-cache cache\nrap plan --plan 3 --gpus 4 --plan-cache cache"),
    ("plan artifacts", """
rap plan --plan 1 --gpus 2 --batch 1024 --gantt --emit-trace plan-trace.json --save-json plan.json \\
  --emit-code plan_module.py --force
rap run --plan 1 --gpus 2 --batch 1024 --iterations 4 --load-plan plan.json
"""),
    ("mixed fleet", "rap run --plan 1 --fleet a100,h100,v100 --batch 1024 --iterations 6 --seed 21"),
    ("GPU loss, kill and resume", """
args="run --plan 0 --gpus 4 --iterations 50 --seed 11 --inject gpu_lost=0.05 --inject kernel_failure=0.3"
status=0; rap $args --checkpoint-dir gpu-ckpt --checkpoint-every 5 --kill-after-iter 20 || status=$?
test "$status" -eq 3
rap $args --checkpoint-dir gpu-ckpt --resume
"""),
    ("every GPU lost", "rap run --plan 0 --gpus 2 --batch 512 --iterations 40 --seed 3 --inject gpu_lost=0.2"),
    ("drift with metrics, compiled engine", """
rap run --plan 1 --gpus 2 --batch 1024 --iterations 12 --drift 'Clamp=2.5:2' --metrics-dir drift-metrics
rap run --plan 1 --gpus 2 --iterations 10 --engine compiled --verify-data 5
"""),
    ("compare, predictor, experiments", "rap compare --plan 1 --gpus 2\nrap predictor --samples 200\nrap experiments --quick"),
    # benchmarks the CI runs whose code no other run reaches
    ("benchmarks", """
cp -r "$ROOT/benchmarks" .
python -m pytest -q -p no:cacheprovider benchmarks/test_ablations.py::test_ablation_hybrid_split \\
  benchmarks/test_ingest.py::test_bench_bursty_arrival_keeps_memory_bounded benchmarks/test_components.py
"""),
)


@dataclass(frozen=True)
class Function:
    path: str  # relative to the source root
    line: int  # first line of its code object
    qualname: str
    lines: int

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}"


def functions(source: Path) -> list[Function]:
    """Every def in every ``.py`` file under ``source``, nested ones included."""
    found: list[Function] = []

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found.append(Function(path, first, qualname, child.end_lineno - first + 1))
                visit(child, path, f"{qualname}.<locals>.")
            else:
                visit(child, path, prefix)

    for file in sorted(source.rglob("*.py")):
        rel = file.relative_to(source).as_posix()
        visit(ast.parse(file.read_text(), filename=str(file)), rel, "")
    return found


def reached(records: Path, source: Path) -> set[tuple[str, int]]:
    """(path under ``source``, first line) of every code object the hook recorded."""
    root = source.resolve()
    hits: set[tuple[str, int]] = set()
    for file in records.glob("*.tsv"):
        for row in file.read_text().splitlines():
            filename, _, line = row.rpartition("\t")
            hits.add((Path(filename).resolve().relative_to(root).as_posix(), int(line)))
    return hits


def record(records: Path, workdir: Path) -> None:
    """Run every script in ``RUNS`` under the hook; exit 2 on the first failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HOOK), str(SOURCE.parent)])
    env["REACH_RECORDS"] = str(records)
    env["REACH_SOURCE"] = str(SOURCE)
    env["ROOT"] = str(ROOT)
    prelude = 'set -euo pipefail\nrap() { python -m repro.cli "$@"; }\n'
    for name, script in RUNS:
        start = time.perf_counter()
        done = subprocess.run(
            ["bash", "-c", prelude + script],
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        print(f"{time.perf_counter() - start:7.1f}s  {name}", flush=True)
        if done.returncode != 0:
            print(done.stdout[-4000:], file=sys.stderr)
            print(f"reach: run {name!r} exited {done.returncode}", file=sys.stderr)
            raise SystemExit(2)


def audit(source: Path, records: Path, kept: dict[str, str]) -> int:
    """Print the reach summary and the unexplained functions; return the exit code."""
    every = functions(source)
    hits = reached(records, source)
    missed = [f for f in every if (f.path, f.line) not in hits]
    unexplained = [f for f in missed if f.key not in kept]
    defined = {f.key for f in every}
    stale = sorted(key for key in kept if key not in defined)
    unnamed = sorted(key for key, reason in kept.items() if reason not in REASONS)
    print(
        f"reach: {len(every) - len(missed)} of {len(every)} functions reached; "
        f"{len(missed) - len(unexplained)} kept with a reason "
        f"({sum(f.lines for f in missed if f.key in kept)} lines)"
    )
    for f in unexplained:
        print(f"  unreached, no reason: {f.path}:{f.line} {f.qualname} ({f.lines} lines)")
    for key in stale:
        print(f"  kept, but no such function: {key}")
    for key in unnamed:
        print(f"  kept without a named reason: {key}")
    return 1 if unexplained or stale or unnamed else 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        records, workdir = Path(scratch) / "records", Path(scratch) / "work"
        records.mkdir()
        workdir.mkdir()
        record(records, workdir)
        return audit(SOURCE, records, KEPT)


if __name__ == "__main__":
    sys.exit(main())
