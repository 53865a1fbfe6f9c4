"""Feeder lifecycle: leases, queue mode, metrics, and edge cases.

The cross-cutting ordering/shutdown/traceback behavior stays pinned in
tests/preprocessing/test_pipeline.py (the legacy import path); this module
covers what the rewrite added — multi-use leases, the backpressure queue
between producer and consumer, ingest metrics, and the lifecycle edge
cases from the issue (zero batches, depth > num_batches, consumer break
under a slow in-flight producer, process-mode cause chains) driven
through real ingest sources.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.ingest import (
    OVERLOAD_POLICIES,
    IngestMetrics,
    PipelinedFeeder,
    QueueConfig,
    SyntheticSource,
    source,
    write_csv,
)
from repro.preprocessing import KAGGLE_SCHEMA


def _feeder_threads():
    return [t for t in threading.enumerate() if t.name.startswith("rap-feeder")]


def _identity(i: int) -> int:
    return i


def _slow_identity(i: int) -> int:
    time.sleep(0.15)
    return i


def _boom_on_two(i: int) -> int:
    if i == 2:
        raise ValueError(f"producer failed on batch {i}")
    return i


@pytest.fixture(scope="module")
def csv_source(tmp_path_factory):
    src = source("synthetic://kaggle?batch=48&batches=6&seed=3")
    path = tmp_path_factory.mktemp("feed") / "feed.csv"
    write_csv(str(path), [src.batch(i) for i in range(6)])
    return source(f"csv://{path}?batch=48")


# ----------------------------------------------------------------------
# multi-use lifecycle
# ----------------------------------------------------------------------


def test_source_supplies_num_batches_and_reiterates(csv_source):
    feeder = PipelinedFeeder(csv_source, workers=2)
    assert feeder.num_batches == 6
    first = [b.size for b in feeder]
    second = [b.size for b in feeder]  # the old code raised here
    assert first == second == [48] * 6
    feeder.close()


def test_unsized_producer_requires_explicit_count():
    with pytest.raises(ValueError, match="num_batches"):
        PipelinedFeeder(lambda i: i)


def test_concurrent_iterations_get_independent_leases(csv_source):
    feeder = PipelinedFeeder(csv_source, depth=2)
    it_a, it_b = iter(feeder), iter(feeder)
    a0, b0 = next(it_a), next(it_b)
    assert a0.size == b0.size == 48
    assert len([b for b in it_a]) == 5  # each lease sees the full epoch
    assert len([b for b in it_b]) == 5
    feeder.close()
    assert not _feeder_threads()


def test_close_releases_live_lease_workers(csv_source):
    feeder = PipelinedFeeder(csv_source, depth=2, workers=2)
    it = iter(feeder)
    next(it)
    assert _feeder_threads()
    feeder.close()
    for t in _feeder_threads():
        t.join(timeout=5.0)
    assert not _feeder_threads()
    with pytest.raises(RuntimeError, match="closed"):
        next(iter(feeder))


# ----------------------------------------------------------------------
# edge cases (issue satellite): zero batches, depth > num_batches,
# consumer break with a slow in-flight producer, process-mode causes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("queue", [None, QueueConfig(capacity=2)])
def test_zero_batches_yields_nothing_and_reiterates(queue):
    feeder = PipelinedFeeder(_identity, num_batches=0, queue=queue)
    assert list(feeder) == []
    assert list(feeder) == []
    feeder.close()


@pytest.mark.parametrize("queue", [None, QueueConfig(capacity=8)])
def test_depth_larger_than_num_batches(queue):
    feeder = PipelinedFeeder(_identity, num_batches=3, depth=10, queue=queue)
    assert list(feeder) == [0, 1, 2]
    assert list(feeder) == [0, 1, 2]
    feeder.close()


@pytest.mark.parametrize("queue", [None, QueueConfig(capacity=2)])
def test_consumer_break_with_slow_inflight_producer_bounded(queue):
    feeder = PipelinedFeeder(_slow_identity, num_batches=100, depth=2, queue=queue)
    start = time.perf_counter()
    for value in feeder:
        break
    # Shutdown waits only for the <= depth batches already started, never
    # the remaining ~98: well under a second for 0.15 s producers.
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    feeder.close()
    for t in _feeder_threads():
        t.join(timeout=5.0)
    assert not _feeder_threads()


def test_queue_mode_thread_exception_keeps_original_traceback():
    import traceback

    feeder = PipelinedFeeder(_boom_on_two, num_batches=5, queue=QueueConfig(capacity=2))
    consumed = []
    with pytest.raises(ValueError, match="batch 2") as excinfo:
        for value in feeder:
            consumed.append(value)
    assert consumed == [0, 1]
    frames = traceback.extract_tb(excinfo.value.__traceback__)
    assert any(f.name == "_boom_on_two" for f in frames)
    feeder.close()


def test_queue_mode_process_exception_carries_remote_cause():
    feeder = PipelinedFeeder(
        _boom_on_two, num_batches=4, mode="process", queue=QueueConfig(capacity=2)
    )
    with pytest.raises(ValueError, match="batch 2") as excinfo:
        list(feeder)
    assert excinfo.value.__cause__ is not None
    feeder.close()


def test_process_mode_with_ingest_source_round_trips(csv_source):
    # File sources drop their cached table on pickling, so each worker
    # process reloads lazily; batches must still match thread mode.
    with PipelinedFeeder(csv_source, mode="process", workers=1) as feeder:
        sizes = [b.size for b in feeder]
    assert sizes == [48] * 6


def _assert_batches_equal(a, b) -> None:
    assert set(a.dense) == set(b.dense) and set(a.sparse) == set(b.sparse)
    for name in a.dense:
        x, y = a.dense[name].values, b.dense[name].values
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    for name in a.sparse:
        x, y = a.sparse[name], b.sparse[name]
        assert x.hash_size == y.hash_size
        assert np.array_equal(x.offsets, y.offsets)
        assert np.array_equal(x.values, y.values)


def test_process_feeder_delivers_identical_batches():
    src = SyntheticSource(KAGGLE_SCHEMA, batch_size=64, num_batches=5, seed=7)
    ref = [src(i) for i in range(5)]
    with PipelinedFeeder(src, mode="process", workers=2, depth=2) as feeder:
        got = list(feeder)
        assert len(got) == 5
        for r, g in zip(ref, got):
            _assert_batches_equal(r, g)
        assert len(list(feeder)) == 5


@pytest.mark.parametrize(
    "queue",
    [QueueConfig(capacity=2, policy=policy) for policy in OVERLOAD_POLICIES] + [None],
    ids=[*OVERLOAD_POLICIES, "futures"],
)
def test_process_abandoned_epoch_leaks_no_workers(queue):
    before = set(multiprocessing.active_children())
    src = SyntheticSource(KAGGLE_SCHEMA, batch_size=64, num_batches=8, seed=11)
    feeder = PipelinedFeeder(src, mode="process", workers=2, depth=3, queue=queue)
    it = iter(feeder)
    next(it)
    spawned = set(multiprocessing.active_children()) - before
    assert spawned
    it.close()  # consumer walks away mid-epoch
    feeder.close()
    assert not any(p.is_alive() for p in spawned)
    assert set(multiprocessing.active_children()) <= before


# ----------------------------------------------------------------------
# queue integration and metrics
# ----------------------------------------------------------------------


def test_drop_oldest_delivers_in_order_subsequence():
    feeder = PipelinedFeeder(
        _identity,
        num_batches=50,
        depth=8,
        workers=2,
        queue=QueueConfig(capacity=2, policy="drop_oldest"),
    )

    got = []
    for value in feeder:
        time.sleep(0.002)  # slow consumer forces drops
        got.append(value)
    feeder.close()
    assert got == sorted(got)  # in-order subsequence
    assert got[-1] == 49  # the newest batch always survives


def test_spill_policy_loses_nothing(tmp_path):
    feeder = PipelinedFeeder(
        _identity,
        num_batches=40,
        depth=8,
        workers=2,
        queue=QueueConfig(
            capacity=8, policy="spill_to_disk", high_watermark=2, low_watermark=1,
            spill_dir=str(tmp_path),
        ),
    )
    got = []
    for value in feeder:
        time.sleep(0.001)
        got.append(value)
    feeder.close()
    assert got == list(range(40))


def test_metrics_accumulate_across_epochs():
    metrics = IngestMetrics()
    feeder = PipelinedFeeder(
        _identity,
        num_batches=5,
        queue=QueueConfig(capacity=2),
        metrics=metrics,
    )
    list(feeder)
    list(feeder)
    feeder.close()
    assert metrics.epochs_total.value == 2
    assert metrics.batches_total.value == 10
    assert metrics.produced_total.value == 10
    registry_names = {name for name, *_ in metrics.registry.families()}
    assert "rap_ingest_queue_wait_seconds" in registry_names


def test_metrics_stall_ratios_identify_slow_consumer():
    metrics = IngestMetrics()
    feeder = PipelinedFeeder(
        _identity,
        num_batches=6,
        queue=QueueConfig(capacity=2),
        metrics=metrics,
    )
    for _ in feeder:
        time.sleep(0.02)  # consumer is the bottleneck's inverse: queue waits
    feeder.close()
    # Producers finish instantly, then stall on the full queue.
    assert metrics.producer_stall_seconds.value > 0.0
    assert metrics.producer_stall_ratio.value > 0.0
