"""Bounded hand-off queue with watermarks and overload policies.

The :class:`BackpressureQueue` sits between the feeder's producer pool and
the training loop. It is a plain bounded FIFO until the producer outruns
the consumer; what happens then is the *overload policy*:

- ``block`` — the producer stalls in :meth:`put` until the consumer
  drains below capacity. Stall time is measured and counted: a high
  producer-stall ratio means ingest is over-provisioned, a high
  consumer-stall ratio means it is the bottleneck (the tf.data-service
  disaggregation signal).
- ``drop_oldest`` — the head of the queue is discarded to admit the new
  item. In-flight memory stays bounded at ``capacity``; drops are counted
  so sweeps can score staleness against throughput.
- ``spill_to_disk`` — above the high watermark, new items overflow to
  numbered pickle files; once the in-memory depth drains below the low
  watermark, spilled items are restored *in FIFO order*. Memory stays
  bounded at the high watermark while nothing is lost.

`close()` wakes every waiter with :class:`QueueClosed`; a closed queue
still drains whatever it holds (memory first, then spill files) before
`get` raises, so a finished producer's tail is never lost.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

__all__ = ["BackpressureQueue", "QueueClosed", "QueueStats", "OVERLOAD_POLICIES"]

OVERLOAD_POLICIES = ("block", "drop_oldest", "spill_to_disk")


class QueueClosed(Exception):
    """Raised by put/get once the queue is closed (and, for get, drained)."""


@dataclass
class QueueStats:
    """Point-in-time counters for one queue; all monotonic except depth."""

    depth: int = 0
    peak_depth: int = 0
    puts: int = 0
    gets: int = 0
    drops: int = 0
    spills: int = 0
    restores: int = 0
    producer_stall_s: float = 0.0
    consumer_stall_s: float = 0.0
    wait_samples: list[float] = field(default_factory=list)


class BackpressureQueue:
    """Bounded FIFO with high/low watermarks and a pluggable overload policy.

    ``capacity`` bounds the in-memory depth. For ``spill_to_disk`` the
    high watermark (default: capacity) is where spilling starts and the
    low watermark (default: ``max(1, capacity // 2)``) is where restore
    resumes; for the other policies the watermarks are inert.
    """

    def __init__(
        self,
        capacity: int,
        *,
        policy: str = "block",
        high_watermark: int | None = None,
        low_watermark: int | None = None,
        spill_dir: str | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        if policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"unknown overload policy {policy!r} (choose from {', '.join(OVERLOAD_POLICIES)})"
            )
        self.capacity = capacity
        self.policy = policy
        self.high_watermark = capacity if high_watermark is None else high_watermark
        self.low_watermark = (
            max(1, capacity // 2) if low_watermark is None else low_watermark
        )
        if not 1 <= self.high_watermark <= capacity:
            raise ValueError(
                f"high watermark {self.high_watermark} must be in [1, capacity={capacity}]"
            )
        if not 0 <= self.low_watermark <= self.high_watermark:
            raise ValueError(
                f"low watermark {self.low_watermark} must be in [0, high={self.high_watermark}]"
            )
        self._items: deque[tuple[float, Any]] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._stats = QueueStats()
        self._spill_dir = spill_dir
        self._owns_spill_dir = False
        self._spill_seq = 0          # next file number to write
        self._spill_head = 0         # next file number to restore
        self._restoring = False      # spill backlog exists; drain to low watermark

    # -- core operations -----------------------------------------------

    def put(self, item: Any) -> None:
        """Enqueue ``item``, applying the overload policy when full."""
        with self._lock:
            if self._closed:
                raise QueueClosed("put on closed queue")
            self._stats.puts += 1
            if self.policy == "spill_to_disk":
                # Once a spill backlog exists, everything new spills too so
                # FIFO order survives (memory holds the oldest items).
                if len(self._items) >= self.high_watermark or self._spill_head < self._spill_seq:
                    self._spill(item)
                    return
            elif len(self._items) >= self.capacity:
                if self.policy == "drop_oldest":
                    self._items.popleft()
                    self._stats.drops += 1
                else:  # block
                    start = time.perf_counter()
                    while len(self._items) >= self.capacity and not self._closed:
                        self._not_full.wait()
                    self._stats.producer_stall_s += time.perf_counter() - start
                    if self._closed:
                        raise QueueClosed("put on closed queue")
            self._append(item)
            self._not_empty.notify()

    def get(self, timeout: float | None = None) -> Any:
        """Dequeue the oldest item; blocks (counted as consumer stall) when
        empty. Raises :class:`QueueClosed` once closed *and* drained, or
        ``TimeoutError`` if ``timeout`` elapses first."""
        with self._lock:
            start = time.perf_counter()
            deadline = None if timeout is None else start + timeout
            while not self._items:
                if self._maybe_restore_locked():
                    continue
                if self._closed:
                    raise QueueClosed("get on closed, drained queue")
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    self._stats.consumer_stall_s += time.perf_counter() - start
                    raise TimeoutError(f"queue get timed out after {timeout}s")
                self._not_empty.wait(remaining)
            waited = time.perf_counter() - start
            self._stats.consumer_stall_s += waited
            enq_time, item = self._items.popleft()
            self._stats.gets += 1
            self._stats.depth = len(self._items)
            self._stats.wait_samples.append(time.perf_counter() - enq_time)
            self._maybe_restore_locked()
            self._not_full.notify()
            return item

    def close(self) -> None:
        """Stop accepting puts and wake all waiters. Idempotent; remaining
        items (memory + spill) stay gettable until drained."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def drain_and_discard(self) -> None:
        """Close, drop everything still queued, and delete spill files."""
        self.close()
        with self._lock:
            self._items.clear()
            self._stats.depth = 0
            self._cleanup_spill_locked()

    # -- introspection ---------------------------------------------------

    def stats(self) -> QueueStats:
        """A copy of the counters (wait_samples shared copy-on-read)."""
        with self._lock:
            snap = QueueStats(
                depth=len(self._items),
                peak_depth=self._stats.peak_depth,
                puts=self._stats.puts,
                gets=self._stats.gets,
                drops=self._stats.drops,
                spills=self._stats.spills,
                restores=self._stats.restores,
                producer_stall_s=self._stats.producer_stall_s,
                consumer_stall_s=self._stats.consumer_stall_s,
                wait_samples=list(self._stats.wait_samples),
            )
            return snap

    # -- internals (call with lock held) ---------------------------------

    def _append(self, item: Any) -> None:
        self._items.append((time.perf_counter(), item))
        self._stats.depth = len(self._items)
        self._stats.peak_depth = max(self._stats.peak_depth, len(self._items))

    def _ensure_spill_dir_locked(self) -> str:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="rap-ingest-spill-")
            self._owns_spill_dir = True
        else:
            os.makedirs(self._spill_dir, exist_ok=True)
        return self._spill_dir

    def _spill_path(self, seq: int) -> str:
        assert self._spill_dir is not None
        return os.path.join(self._spill_dir, f"spill-{seq:08d}.pkl")

    def _spill(self, item: Any) -> None:
        directory = self._ensure_spill_dir_locked()
        path = os.path.join(directory, f"spill-{self._spill_seq:08d}.pkl")
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(item, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        self._spill_seq += 1
        self._stats.spills += 1

    def _maybe_restore_locked(self) -> bool:
        """Refill memory from spill files once depth drains below the low
        watermark; returns True if anything was restored."""
        if self._spill_head >= self._spill_seq:
            return False
        if len(self._items) > self.low_watermark:
            return False
        restored = False
        while self._spill_head < self._spill_seq and len(self._items) < self.high_watermark:
            path = self._spill_path(self._spill_head)
            with open(path, "rb") as fh:
                item = pickle.load(fh)
            os.unlink(path)
            self._spill_head += 1
            self._append(item)
            self._stats.restores += 1
            restored = True
        if restored:
            self._not_empty.notify_all()
        return restored

    def _cleanup_spill_locked(self) -> None:
        while self._spill_head < self._spill_seq:
            path = self._spill_path(self._spill_head)
            try:
                os.unlink(path)
            except OSError:
                pass
            self._spill_head += 1
        if self._owns_spill_dir and self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
            self._owns_spill_dir = False
