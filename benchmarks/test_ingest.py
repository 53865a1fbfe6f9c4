"""Streaming-ingest benchmarks: feeder overlap and backpressure bounds.

Two pinned properties land in ``BENCH_ingest.json`` at the repo root:

1. The rewritten queue-mode :class:`PipelinedFeeder` still delivers the
   §6.3 inter-batch interleaving win -- producing batch ``i+1`` (storage
   fetch + synthesis) overlaps executing batch ``i``, same bar as the
   futures-mode bench in ``test_data_path.py``.
2. Under a bursty arrival curve that outruns the consumer, the
   :class:`BackpressureQueue` keeps resident depth bounded under EVERY
   overload policy -- ``block`` by stalling the producer, ``drop_oldest``
   by shedding, ``spill_to_disk`` by paging to disk -- and each policy's
   drop/spill accounting is exact.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.forge import ArrivalCurve
from repro.ingest import (
    OVERLOAD_POLICIES,
    IngestMetrics,
    PacedSource,
    PipelinedFeeder,
    QueueConfig,
    source,
)
from repro.ioutil import atomic_write_json
from repro.preprocessing import build_plan, compile_graph_set

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_ingest.json"

#: Queue-mode feeder end-to-end overlap bar (same rationale as the
#: futures-mode bar in test_data_path.py: 12 ms of GIL-releasing fetch
#: per batch must hide under ~9 ms of synthesis + engine execute).
MIN_QUEUE_PIPELINE_SPEEDUP = 1.3
#: Memory bound under burst: resident depth may never exceed the queue
#: capacity (block / drop_oldest) or the spill high watermark.
BURST_CAPACITY = 4
BURST_HIGH_WATERMARK = 2

RESULTS: dict = {}


@pytest.fixture(scope="session", autouse=True)
def write_bench_json():
    """Publish every recorded measurement to BENCH_ingest.json."""
    yield
    payload = {
        "benchmark": "ingest",
        "numpy": np.__version__,
        "bars": {
            "queue_pipeline_speedup": MIN_QUEUE_PIPELINE_SPEEDUP,
            "burst_resident_capacity": BURST_CAPACITY,
            "burst_spill_high_watermark": BURST_HIGH_WATERMARK,
        },
        "results": RESULTS,
    }
    atomic_write_json(BENCH_PATH, payload)


def test_bench_queue_mode_feeder_overlap():
    """Queue-mode feeder hides producer latency under consumer work."""
    graphs, _ = build_plan(1, rows=4096)
    program = compile_graph_set(graphs)
    src = source("synthetic://kaggle?batch=4096&batches=12&seed=3&io_delay_ms=12")
    num_batches = len(src)
    program.execute(src.batch(0))  # warmup engine + arena

    t0 = time.perf_counter()
    for i in range(num_batches):
        program.execute(src(i))  # __call__ pays the fetch delay inline
    sequential_s = time.perf_counter() - t0

    metrics = IngestMetrics()
    feeder = PipelinedFeeder(
        src, depth=4, workers=2, queue=QueueConfig(capacity=4), metrics=metrics
    )
    with feeder:
        t0 = time.perf_counter()
        for batch in feeder:
            program.execute(batch)
        pipelined_s = time.perf_counter() - t0

    speedup = sequential_s / pipelined_s
    RESULTS["queue_mode_feeder_plan1_rows4096"] = {
        "num_batches": num_batches,
        "io_delay_ms": 12.0,
        "depth": 4,
        "workers": 2,
        "queue_capacity": 4,
        "sequential_ms_per_batch": round(sequential_s / num_batches * 1e3, 4),
        "pipelined_ms_per_batch": round(pipelined_s / num_batches * 1e3, 4),
        "producer_stall_ratio": round(metrics.producer_stall_ratio.value, 4),
        "speedup": round(speedup, 3),
    }
    assert speedup >= MIN_QUEUE_PIPELINE_SPEEDUP, (
        f"queue-mode feeder only {speedup:.2f}x over sequential "
        f"(bar {MIN_QUEUE_PIPELINE_SPEEDUP}x)"
    )


@pytest.mark.parametrize("policy", OVERLOAD_POLICIES)
def test_bench_bursty_arrival_keeps_memory_bounded(policy, tmp_path):
    """Acceptance pin: every overload policy bounds resident depth.

    A bursty arrival curve compresses inter-batch gaps to ~2.8 ms while
    the consumer holds at 5 ms/batch, so the producer outruns the
    consumer for the whole burst window; without backpressure the queue
    would grow ~burst_length deep.
    """
    curve = ArrivalCurve(shape="bursty", amplitude=0.8, burst_at=8, burst_length=24)
    num_batches = 40
    inner = source(f"synthetic://kaggle?batch=32&batches={num_batches}&seed=5")
    paced = PacedSource(inner, curve.delay_schedule(num_batches, 0.005))

    metrics = IngestMetrics()
    feeder = PipelinedFeeder(
        paced,
        depth=2,
        workers=1,  # serial production preserves the arrival pacing
        queue=QueueConfig(
            capacity=BURST_CAPACITY,
            policy=policy,
            high_watermark=BURST_HIGH_WATERMARK if policy == "spill_to_disk" else None,
            low_watermark=1 if policy == "spill_to_disk" else None,
            spill_dir=str(tmp_path),
        ),
        metrics=metrics,
    )
    delivered = 0
    t0 = time.perf_counter()
    with feeder:
        for batch in feeder:
            time.sleep(0.005)  # fixed-rate consumer
            delivered += 1
    wall_s = time.perf_counter() - t0

    peak = int(metrics.queue_peak_depth.value)
    drops = int(metrics.drops_total.value)
    spills = int(metrics.spills_total.value)
    bound = BURST_HIGH_WATERMARK if policy == "spill_to_disk" else BURST_CAPACITY
    RESULTS[f"bursty_arrival_{policy}"] = {
        "num_batches": num_batches,
        "delivered": delivered,
        "peak_resident_depth": peak,
        "resident_bound": bound,
        "drops": drops,
        "spills": spills,
        "wall_s": round(wall_s, 3),
        "producer_stall_ratio": round(metrics.producer_stall_ratio.value, 4),
    }
    assert peak <= bound, f"{policy}: resident depth {peak} exceeded bound {bound}"
    if policy == "drop_oldest":
        assert delivered + drops == num_batches  # shedding is fully accounted
    else:
        assert delivered == num_batches  # block and spill lose nothing
    if policy == "spill_to_disk":
        assert not list(Path(tmp_path).glob("spill-*.pkl"))  # all restored
