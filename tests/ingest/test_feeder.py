"""PipelinedFeeder: ordering, leases, shutdown, exceptions, queue and metrics.

The feeder has one path -- a thread pool whose coordinator feeds a
backpressure queue -- pinned here: in-order delivery, the bounded window
(``depth`` in flight plus ``capacity`` buffered), multi-use leases,
shutdown without leaked threads or spill directories, original-traceback
exception propagation, the overload policies and the ingest metrics.
``tests/preprocessing/test_pipeline.py`` covers the ``with`` lifecycle.
"""

import tempfile
import threading
import time
import traceback

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
from repro.preprocessing import KAGGLE_SCHEMA, SyntheticCriteoDataset


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
# delivery
# ----------------------------------------------------------------------


def test_in_order_delivery_despite_uneven_latency():
    def produce(i: int) -> int:
        time.sleep(0.02 if i % 2 == 0 else 0.0)  # even batches finish late
        return i

    with PipelinedFeeder(produce, num_batches=8, depth=3, workers=2) as feeder:
        assert list(feeder) == list(range(8))


def test_batches_identical_to_direct_synthesis():
    src = SyntheticSource(KAGGLE_SCHEMA, batch_size=32, num_batches=3, seed=7)
    dataset = SyntheticCriteoDataset(KAGGLE_SCHEMA, seed=7)
    with PipelinedFeeder(src, workers=2) as feeder:
        got = list(feeder)
    assert len(got) == 3
    for i, batch in enumerate(got):
        want = dataset.batch(32, index=i)
        assert set(batch.dense) == set(want.dense)
        assert set(batch.sparse) == set(want.sparse)
        for name, col in want.dense.items():
            assert batch.dense[name].values.dtype == col.values.dtype
            np.testing.assert_array_equal(batch.dense[name].values, col.values)
        for name, col in want.sparse.items():
            assert batch.sparse[name].hash_size == col.hash_size
            assert np.array_equal(batch.sparse[name].offsets, col.offsets)
            assert np.array_equal(batch.sparse[name].values, col.values)


def test_depth_bounds_in_flight_window():
    # At most ``depth`` producers run at once, the queue never holds more
    # than ``capacity``, and no producer starts more than depth + capacity
    # batches ahead of the consumer.
    depth, capacity = 2, 3
    lock = threading.Lock()
    live = peak = lookahead = received = 0

    def produce(i: int) -> int:
        nonlocal live, peak, lookahead
        with lock:
            live += 1
            peak = max(peak, live)
            lookahead = max(lookahead, i - received)
        time.sleep(0.005)
        with lock:
            live -= 1
        return i

    metrics = IngestMetrics()
    feeder = PipelinedFeeder(
        produce, num_batches=12, depth=depth, workers=4,
        queue=QueueConfig(capacity=capacity), metrics=metrics,
    )
    with feeder:
        for _ in feeder:
            with lock:
                received += 1
            time.sleep(0.01)  # slow consumer: the queue fills to capacity
    assert peak <= depth
    assert metrics.queue_peak_depth.value == capacity
    assert lookahead <= depth + capacity


@pytest.mark.parametrize("queue", [QueueConfig(), QueueConfig(capacity=2)])
def test_zero_batches_yields_nothing_and_reiterates(queue):
    feeder = PipelinedFeeder(_identity, num_batches=0, queue=queue)
    assert list(feeder) == []
    assert list(feeder) == []
    feeder.close()


@pytest.mark.parametrize("queue", [QueueConfig(), QueueConfig(capacity=8)])
def test_depth_larger_than_num_batches(queue):
    feeder = PipelinedFeeder(_identity, num_batches=3, depth=10, queue=queue)
    assert list(feeder) == [0, 1, 2]
    assert list(feeder) == [0, 1, 2]
    feeder.close()


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


def test_reiteration_uses_a_fresh_pool():
    # Regression: the old __iter__ closed the feeder in its finally, so a
    # second iteration raised bare "RuntimeError: feeder is closed".
    feeder = PipelinedFeeder(_identity, num_batches=4, workers=2)
    assert list(feeder) == list(range(4))
    assert list(feeder) == list(range(4))
    with feeder:
        assert list(feeder) == list(range(4))
    assert feeder.closed
    assert not _feeder_threads()


def test_clean_shutdown_no_leaked_workers():
    feeder = PipelinedFeeder(_identity, num_batches=5, workers=2)
    assert list(feeder) == list(range(5))
    # Exhausting an iteration releases its lease (no leaked threads) but
    # leaves the feeder itself open for the next epoch.
    assert not feeder.closed
    assert not _feeder_threads()
    feeder.close()
    assert feeder.closed


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
    assert not _feeder_threads()
    with pytest.raises(RuntimeError, match="closed"):
        next(iter(feeder))
    feeder.close()  # idempotent


def test_constructor_validation():
    with pytest.raises(ValueError, match="depth"):
        PipelinedFeeder(_identity, num_batches=1, depth=0)
    with pytest.raises(ValueError, match="num_batches"):
        PipelinedFeeder(_identity, num_batches=-1)
    with pytest.raises(ValueError, match="workers"):
        PipelinedFeeder(_identity, num_batches=1, workers=0)
    # The queue configuration is checked when the feeder is built, not
    # when the first iteration leases a queue.
    with pytest.raises(ValueError, match="capacity"):
        PipelinedFeeder(_identity, num_batches=1, queue=QueueConfig(capacity=0))
    with pytest.raises(ValueError, match="overload policy"):
        PipelinedFeeder(_identity, num_batches=1, queue=QueueConfig(policy="lifo"))
    with pytest.raises(ValueError, match="watermark"):
        PipelinedFeeder(
            _identity, num_batches=1,
            queue=QueueConfig(capacity=2, policy="spill_to_disk", high_watermark=3),
        )


# ----------------------------------------------------------------------
# shutdown and failures
# ----------------------------------------------------------------------


@pytest.mark.parametrize("queue", [QueueConfig(), QueueConfig(capacity=2)])
def test_consumer_break_with_slow_inflight_producer_bounded(queue):
    feeder = PipelinedFeeder(_slow_identity, num_batches=100, depth=2, queue=queue)
    start = time.perf_counter()
    for value in feeder:
        break
    # Shutdown waits only for the <= depth batches already started, never
    # the remaining ~98: well under a second for 0.15 s producers.
    assert time.perf_counter() - start < 2.0
    # Leaving the loop releases the lease; the feeder stays open.
    assert not _feeder_threads()
    assert not feeder.closed
    feeder.close()


@pytest.mark.parametrize("policy", OVERLOAD_POLICIES)
def test_abandoned_epoch_leaks_no_threads(policy, tmp_path, monkeypatch):
    # The spill directory defaults to a fresh temp dir; point tempfile at
    # tmp_path so a leaked rap-ingest-spill-* directory would show.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    before = set(_feeder_threads())
    src = SyntheticSource(KAGGLE_SCHEMA, batch_size=64, num_batches=8, seed=11)
    feeder = PipelinedFeeder(
        src, depth=3, workers=2, queue=QueueConfig(capacity=2, policy=policy)
    )
    it = iter(feeder)
    next(it)
    spawned = set(_feeder_threads()) - before
    assert "rap-feeder-coordinator" in {t.name for t in spawned}
    (lease,) = feeder._leases
    deadline = time.monotonic() + 10.0
    while lease.queue.stats().puts < 4 and time.monotonic() < deadline:
        time.sleep(0.005)  # let the producers fill the queue (and spill)
    if policy == "spill_to_disk":
        assert lease.queue.stats().spills >= 1
    it.close()  # consumer walks away mid-epoch
    feeder.close()
    assert not any(t.is_alive() for t in spawned)
    assert set(_feeder_threads()) <= before
    assert list(tmp_path.glob("rap-ingest-spill-*")) == []


def test_queue_mode_thread_exception_keeps_original_traceback():
    feeder = PipelinedFeeder(_boom_on_two, num_batches=5, queue=QueueConfig(capacity=2))
    consumed = []
    with pytest.raises(ValueError, match="batch 2") as excinfo:
        for value in feeder:
            consumed.append(value)
    # Batches before the failure were delivered in order...
    assert consumed == [0, 1]
    # ...the re-raised exception carries the producer's own frames...
    frames = traceback.extract_tb(excinfo.value.__traceback__)
    assert any(f.name == "_boom_on_two" for f in frames)
    # ...and the failed epoch's lease is released with it.
    assert not _feeder_threads()
    assert not feeder.closed
    feeder.close()


# ----------------------------------------------------------------------
# overload policies and metrics
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
