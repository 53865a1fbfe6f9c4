"""Data-path throughput benchmark: naive executor vs compiled engine.

Measures batches/sec for the op-by-op naive ``execute_graph_set`` against
the compiled fused engine on the pinned Table-3 plans and a random-plan
sweep, plus the §6.3 pipelined-feeder end-to-end win and the
``_config_noise`` memoization microbenchmark (satellite of ISSUE 5). Every
measurement lands in ``BENCH_data_path.json`` at the repo root so future
PRs have a perf trajectory to regress against; the pinned bars below make
a regression fail the run itself.

Bars are calibrated to this reproduction's reality (see DESIGN.md §12):
the naive executor is already fully vectorized per op (no per-row Python
loops survive), and CI runs single-core, so the compiled engine's win
comes from dispatch elimination, buffer pooling, and fused grouped calls
-- not from beating an interpreter loop. Honest measured speedups are
~1.5-2.4x depending on the op mix; the bars sit below the measured values
by a CI-noise margin.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.ioutil import atomic_write_json
from repro.preprocessing import (
    ParallelEngine,
    PipelinedFeeder,
    SyntheticBatchSource,
    SyntheticCriteoDataset,
    build_plan,
    compile_graph_set,
    execute_graph_set,
)
from repro.preprocessing.ops import _config_noise, make_op
from repro.preprocessing.random_plans import RandomPlanConfig, generate_random_plan

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_data_path.json"

#: Compiled-over-naive bar on the quickstart plan (plan 1 @ 4096 rows).
MIN_COMPILED_SPEEDUP = 1.7
#: Compiled-over-naive bar on the heavier plan 2 (Ngram-dominated).
MIN_SWEEP_SPEEDUP = 1.2
#: Random-plan sweep floors. Isolated runs measure 1.5-1.9x, but inside
#: the full suite the warm allocator narrows the gap (naive's temporary
#: allocations hit free lists grown by earlier tests, eroding part of the
#: arena's advantage) to 1.2-1.4x depending on machine load, so these are
#: win-guards -- compiled must beat naive on every random plan -- rather
#: than magnitude bars; the recorded speedups carry the magnitude.
MIN_SWEEP_SEED_SPEEDUP = 1.05
MIN_SWEEP_MEAN_SPEEDUP = 1.15
#: Fused grouped execution vs one-op-per-step compiled execution. On host
#: CPU the per-step dispatch cost is sub-microsecond, so fusion is
#: wall-clock neutral here (its win is modeled in the GPU cost model, not
#: the host path) -- this bar guards that grouping never becomes a real
#: regression, not that it is a speedup.
MIN_FUSION_RATIO = 0.85
#: Pipelined feeder end-to-end bar when per-batch prep is nontrivial.
MIN_PIPELINE_SPEEDUP = 1.3
#: Memoized _config_noise over the raw digest computation.
MIN_NOISE_MEMO_SPEEDUP = 2.0
#: Multi-core engine over single-core compiled at 2 workers on plan 2 @
#: 8192 rows, gated on hosts with >= 2 cores. Taken from the measured
#: curve: a 2-vCPU host measured 1.44x and 1.62x there (plan 1 @ 4096 is
#: too small to amortize the shm handoff: 0.56x and 1.10x).
MIN_PARALLEL_SPEEDUP_2W = 1.2

RESULTS: dict = {}


@pytest.fixture(scope="session", autouse=True)
def write_bench_json():
    """Publish every recorded measurement to BENCH_data_path.json."""
    yield
    payload = {
        "benchmark": "data_path",
        "numpy": np.__version__,
        "bars": {
            "compiled_vs_naive_quickstart": MIN_COMPILED_SPEEDUP,
            "compiled_vs_naive_plan2": MIN_SWEEP_SPEEDUP,
            "sweep_per_seed": MIN_SWEEP_SEED_SPEEDUP,
            "sweep_mean": MIN_SWEEP_MEAN_SPEEDUP,
            "fused_vs_unfused": MIN_FUSION_RATIO,
            "pipelined_vs_sequential": MIN_PIPELINE_SPEEDUP,
            "config_noise_memo": MIN_NOISE_MEMO_SPEEDUP,
            "parallel_speedup_2_workers": MIN_PARALLEL_SPEEDUP_2W,
        },
        "results": RESULTS,
    }
    atomic_write_json(BENCH_PATH, payload)


def _best_s(fn, reps: int = 7) -> float:
    """Best-of-N wall time: robust to one-sided scheduler interference."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _engine_pair(plan_id: int, rows: int, seed: int = 17):
    graphs, schema = build_plan(plan_id, rows=rows)
    batch = SyntheticCriteoDataset(schema, seed=seed).batch(rows, index=0)
    program = compile_graph_set(graphs)
    # Warmup: first naive run touches every kernel; first compiled run
    # grows the arena to steady state.
    execute_graph_set(graphs, batch)
    program.execute(batch)
    return graphs, batch, program


def _record(key: str, naive_s: float, compiled_s: float, **extra) -> float:
    speedup = naive_s / compiled_s
    RESULTS[key] = {
        "naive_ms_per_batch": round(naive_s * 1e3, 4),
        "compiled_ms_per_batch": round(compiled_s * 1e3, 4),
        "naive_batches_per_s": round(1.0 / naive_s, 2),
        "compiled_batches_per_s": round(1.0 / compiled_s, 2),
        "speedup": round(speedup, 3),
        **extra,
    }
    return speedup


def test_bench_quickstart_naive_vs_compiled():
    """Plan 1 @ 4096 (the README quick-start workload)."""
    graphs, batch, program = _engine_pair(1, rows=4096)
    naive_s = _best_s(lambda: execute_graph_set(graphs, batch))
    compiled_s = _best_s(lambda: program.execute(batch))
    speedup = _record(
        "quickstart_plan1_rows4096",
        naive_s,
        compiled_s,
        steps=program.num_steps,
        ops=program.num_ops,
        max_fusion_degree=program.max_fusion_degree,
    )
    assert speedup >= MIN_COMPILED_SPEEDUP, (
        f"compiled engine only {speedup:.2f}x over naive "
        f"(bar {MIN_COMPILED_SPEEDUP}x): {naive_s * 1e3:.2f} ms vs "
        f"{compiled_s * 1e3:.2f} ms per batch"
    )


def test_bench_plan2_naive_vs_compiled():
    """Plan 2 @ 2048: Ngram-heavy, the least dispatch-bound plan."""
    graphs, batch, program = _engine_pair(2, rows=2048)
    naive_s = _best_s(lambda: execute_graph_set(graphs, batch))
    compiled_s = _best_s(lambda: program.execute(batch))
    speedup = _record("plan2_rows2048", naive_s, compiled_s, steps=program.num_steps)
    assert speedup >= MIN_SWEEP_SPEEDUP


def test_bench_fused_vs_unfused():
    """Fusion-aware grouping must not regress the host data path."""
    graphs, schema = build_plan(1, rows=4096)
    batch = SyntheticCriteoDataset(schema, seed=17).batch(4096, index=0)
    fused = compile_graph_set(graphs, fusion=True)
    unfused = compile_graph_set(graphs, fusion=False)
    fused.execute(batch)
    unfused.execute(batch)
    fused_s = _best_s(lambda: fused.execute(batch), reps=15)
    unfused_s = _best_s(lambda: unfused.execute(batch), reps=15)
    ratio = unfused_s / fused_s
    RESULTS["fused_vs_unfused_plan1_rows4096"] = {
        "fused_ms_per_batch": round(fused_s * 1e3, 4),
        "unfused_ms_per_batch": round(unfused_s * 1e3, 4),
        "fused_steps": fused.num_steps,
        "unfused_steps": unfused.num_steps,
        "ratio": round(ratio, 3),
    }
    assert ratio >= MIN_FUSION_RATIO, (
        f"fused execution regressed to {ratio:.3f}x of unfused "
        f"(non-regression bar {MIN_FUSION_RATIO}x)"
    )


def test_bench_random_plan_sweep():
    """Compiled wins across randomly generated workloads, not just pinned ones."""
    speedups = []
    for seed in (1, 2, 3):
        graphs, schema = generate_random_plan(RandomPlanConfig(seed=seed), rows=2048)
        batch = SyntheticCriteoDataset(schema, seed=seed).batch(2048, index=0)
        program = compile_graph_set(graphs)
        execute_graph_set(graphs, batch)
        program.execute(batch)
        naive_s = _best_s(lambda: execute_graph_set(graphs, batch), reps=5)
        compiled_s = _best_s(lambda: program.execute(batch), reps=5)
        speedups.append(
            _record(f"random_plan_seed{seed}_rows2048", naive_s, compiled_s)
        )
    RESULTS["random_plan_sweep"] = {
        "seeds": [1, 2, 3],
        "min_speedup": round(min(speedups), 3),
        "mean_speedup": round(statistics.mean(speedups), 3),
    }
    assert min(speedups) >= MIN_SWEEP_SEED_SPEEDUP
    assert statistics.mean(speedups) >= MIN_SWEEP_MEAN_SPEEDUP


def test_bench_pipelined_feeder():
    """§6.3 inter-batch interleaving: prep of batch i+1 hides under batch i.

    Per-batch prep is synthesis (~9 ms of host CPU at 4096 rows) plus a
    simulated storage-fetch latency (sleep, which releases the GIL exactly
    like real file/network I/O). The sequential baseline pays
    prep + execute per batch; the pipelined feeder overlaps them. Two
    workers are needed so the storage-fetch sleeps of consecutive batches
    overlap each other -- with one worker the per-batch floor is a single
    worker's full prep wall time.
    """
    graphs, schema = build_plan(1, rows=4096)
    program = compile_graph_set(graphs)
    source = SyntheticBatchSource(schema, batch_size=4096, seed=3, io_delay_s=0.012)
    num_batches = 12
    program.execute(source(0))  # warmup engine + arena

    t0 = time.perf_counter()
    for i in range(num_batches):
        program.execute(source(i))
    sequential_s = time.perf_counter() - t0

    with PipelinedFeeder(source, num_batches, depth=4, workers=2) as feeder:
        t0 = time.perf_counter()
        for batch in feeder:
            program.execute(batch)
        pipelined_s = time.perf_counter() - t0

    speedup = sequential_s / pipelined_s
    RESULTS["pipelined_feeder_plan1_rows4096"] = {
        "num_batches": num_batches,
        "io_delay_ms": 12.0,
        "depth": 4,
        "workers": 2,
        "sequential_ms_per_batch": round(sequential_s / num_batches * 1e3, 4),
        "pipelined_ms_per_batch": round(pipelined_s / num_batches * 1e3, 4),
        "speedup": round(speedup, 3),
    }
    assert speedup >= MIN_PIPELINE_SPEEDUP, (
        f"pipelined feeder only {speedup:.2f}x over sequential "
        f"(bar {MIN_PIPELINE_SPEEDUP}x)"
    )


def test_bench_parallel_scaling():
    """Per-core scaling curve of the sharded shm engine.

    The curve (parallel engine at 1/2/4/8 workers vs the single-core
    compiled engine) is always measured and recorded; the 2-worker gate
    applies only on hosts with >= 2 cores. On a 1-core container the
    parallel engine cannot beat single-core (its workers time-slice one
    CPU and pay the shm handoff on top), so the gate skips with a notice
    instead of failing on physics.
    """
    cores = len(os.sched_getaffinity(0))
    rows = 8192
    graphs, schema = build_plan(2, rows=rows)
    batch = SyntheticCriteoDataset(schema, seed=17).batch(rows, index=0)
    program = compile_graph_set(graphs)
    program.execute(batch)
    single_s = _best_s(lambda: program.execute(batch), reps=5)

    curve = {}
    worker_counts = [1, 2, 4, 8]
    for workers in worker_counts:
        with ParallelEngine(graphs, workers=workers) as engine:
            # Warm: the first batches spawn and compile the shards, then
            # grow and consolidate their shm arenas; on a 2-vCPU host the
            # engine reaches its steady state only after about five.
            for _ in range(6):
                engine.execute(batch)
            par_s = _best_s(lambda: engine.execute(batch), reps=5)
            curve[str(workers)] = {
                "shards": engine.num_shards,
                "ms_per_batch": round(par_s * 1e3, 4),
                "batches_per_s": round(1.0 / par_s, 2),
                "speedup_vs_single_core": round(single_s / par_s, 3),
                "shm_bytes_in_flight": engine.shm_bytes_in_flight(),
                "worker_busy_fraction": engine.worker_busy_fractions(),
            }

    gates = {
        "2_workers": {
            "bar": MIN_PARALLEL_SPEEDUP_2W,
            "applied": cores >= 2,
            "measured": curve["2"]["speedup_vs_single_core"],
        },
    }
    RESULTS["parallel_scaling_plan2_rows8192"] = {
        "cores": cores,
        "single_core_ms_per_batch": round(single_s * 1e3, 4),
        "curve": curve,
        "gates": gates,
        "arena_stats": program.arena.stats(),
    }
    if cores < 2:
        pytest.skip(
            f"scaling gate needs >= 2 cores, host has {cores}; "
            "curve recorded in BENCH_data_path.json"
        )
    assert curve["2"]["speedup_vs_single_core"] >= MIN_PARALLEL_SPEEDUP_2W


def test_bench_config_noise_memoization():
    """Satellite: the digest memo must beat recomputing the md5 every call."""
    op = make_op("SigridHash", ("s0",), "h", salt=1, max_value=101)
    key = ("SigridHash", 4096, 2.0) + op._params_key()
    calls = 20_000

    def memoized():
        for _ in range(calls):
            _config_noise(key)

    def uncached():
        for _ in range(calls):
            _config_noise.__wrapped__(key)

    _config_noise.cache_clear()
    _config_noise(key)  # populate
    memo_s = _best_s(memoized, reps=5)
    raw_s = _best_s(uncached, reps=5)
    speedup = raw_s / memo_s
    RESULTS["config_noise_memo"] = {
        "calls": calls,
        "memoized_us_per_call": round(memo_s / calls * 1e6, 4),
        "uncached_us_per_call": round(raw_s / calls * 1e6, 4),
        "speedup": round(speedup, 3),
    }
    assert speedup >= MIN_NOISE_MEMO_SPEEDUP


def test_bench_json_shape():
    """The artifact CI uploads is well-formed and self-describing."""
    # Runs after the measurements in file order; the session fixture writes
    # at teardown, so validate the payload we are about to publish.
    assert "quickstart_plan1_rows4096" in RESULTS
    json.dumps(RESULTS)  # everything must be JSON-serializable
