"""BackpressureQueue: watermarks, overload policies, close semantics."""

import threading
import time

import pytest

from repro.ingest import BackpressureQueue, QueueClosed


def test_fifo_and_stats():
    q = BackpressureQueue(4)
    for i in range(4):
        q.put(i)
    assert [q.get() for _ in range(4)] == [0, 1, 2, 3]
    stats = q.stats()
    assert stats.puts == 4 and stats.gets == 4
    assert stats.peak_depth == 4 and stats.depth == 0
    assert len(stats.wait_samples) == 4


def test_block_policy_stalls_producer_until_drained():
    q = BackpressureQueue(1, policy="block")
    q.put(0)
    unblocked = threading.Event()

    def producer():
        q.put(1)  # must wait for the consumer
        unblocked.set()

    t = threading.Thread(target=producer)
    t.start()
    time.sleep(0.05)
    assert not unblocked.is_set()
    assert q.get() == 0
    t.join(timeout=5.0)
    assert unblocked.is_set()
    assert q.get() == 1
    assert q.stats().producer_stall_s > 0.0


def test_drop_oldest_bounds_depth_and_keeps_newest():
    q = BackpressureQueue(3, policy="drop_oldest")
    for i in range(10):
        q.put(i)
    assert q.stats().depth == 3
    assert [q.get() for _ in range(3)] == [7, 8, 9]
    assert q.stats().drops == 7


def test_spill_to_disk_bounds_memory_and_preserves_order(tmp_path):
    q = BackpressureQueue(
        8, policy="spill_to_disk", high_watermark=3, low_watermark=1,
        spill_dir=str(tmp_path),
    )
    payload = [{"batch": i, "data": list(range(50))} for i in range(20)]
    peak = 0
    for item in payload:
        q.put(item)
        peak = max(peak, q.stats().depth)
    assert peak <= 3  # memory bounded at the high watermark
    assert q.stats().spills == 17
    got = [q.get() for _ in range(20)]
    assert got == payload  # FIFO order survives the disk round-trip
    assert q.stats().restores == 17
    assert not list(tmp_path.glob("spill-*.pkl"))  # all spill files consumed


def test_spill_restores_resume_below_low_watermark(tmp_path):
    q = BackpressureQueue(
        8, policy="spill_to_disk", high_watermark=4, low_watermark=2,
        spill_dir=str(tmp_path),
    )
    for i in range(10):
        q.put(i)
    # Memory holds 0-3 (high watermark), 4-9 spilled; puts never restore.
    assert q.stats().restores == 0
    assert q.get() == 0
    assert q.stats().restores == 0  # depth 3 is still above the low watermark
    assert q.get() == 1  # depth reaches the low watermark -> refill to high
    assert q.stats().restores > 0
    assert [q.get() for _ in range(8)] == [2, 3, 4, 5, 6, 7, 8, 9]


def test_close_wakes_blocked_producer_and_consumer():
    q = BackpressureQueue(1, policy="block")
    q.put(0)
    errors = []

    def blocked_put():
        try:
            q.put(1)
        except QueueClosed:
            errors.append("put")

    def blocked_get():
        try:
            q2.get()
        except QueueClosed:
            errors.append("get")

    t = threading.Thread(target=blocked_put)
    t.start()
    time.sleep(0.02)
    q.close()
    t.join(timeout=5.0)
    assert errors == ["put"]

    q2 = BackpressureQueue(1)
    t2 = threading.Thread(target=blocked_get)
    t2.start()
    time.sleep(0.02)
    q2.close()
    t2.join(timeout=5.0)
    assert not t2.is_alive()
    assert errors == ["put", "get"]


def test_closed_queue_drains_then_raises():
    q = BackpressureQueue(4)
    q.put("a")
    q.put("b")
    q.close()
    with pytest.raises(QueueClosed):
        q.put("c")
    assert q.get() == "a" and q.get() == "b"
    with pytest.raises(QueueClosed):
        q.get()


def test_drain_and_discard_removes_spill_files(tmp_path):
    q = BackpressureQueue(
        4, policy="spill_to_disk", high_watermark=1, low_watermark=0,
        spill_dir=str(tmp_path),
    )
    for i in range(5):
        q.put(i)
    assert list(tmp_path.glob("spill-*.pkl"))
    q.drain_and_discard()
    assert not list(tmp_path.glob("spill-*.pkl"))
    with pytest.raises(QueueClosed):
        q.get()


def test_get_timeout():
    q = BackpressureQueue(2)
    with pytest.raises(TimeoutError):
        q.get(timeout=0.05)


def test_constructor_validation():
    with pytest.raises(ValueError, match="capacity"):
        BackpressureQueue(0)
    with pytest.raises(ValueError, match="policy"):
        BackpressureQueue(2, policy="explode")
    with pytest.raises(ValueError, match="high watermark"):
        BackpressureQueue(2, high_watermark=5)
    with pytest.raises(ValueError, match="low watermark"):
        BackpressureQueue(4, high_watermark=2, low_watermark=3)
