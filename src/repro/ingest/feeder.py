"""Inter-batch pipelined feeding (§6.3): a thread pool feeding a backpressure queue.

:class:`PipelinedFeeder` prepares batch *i+1* in the background while the
consumer works on batch *i* — the paper's inter-batch interleaving on real
data. Every ``__iter__`` leases fresh resources: a thread pool, a
:class:`~repro.ingest.queue.BackpressureQueue`, and a coordinator thread
that keeps the pool busy and enqueues results in order. Exhausting or
abandoning the iterator releases the lease but leaves the feeder
reusable; only the explicit ``close()`` / ``with``-exit ends the
lifecycle, after which iteration raises ``RuntimeError``.

Guarantees:

- **In-order delivery** — batch ``i`` always precedes ``i+1``
  (``drop_oldest`` may skip batches, never reorder them).
- **Bounded lookahead** — at most ``depth`` batches in flight plus the
  queue's ``capacity`` buffered (``spill_to_disk`` pages the excess to
  disk instead of holding it).
- **Clean, bounded shutdown** — exhaustion, consumer ``break``, producer
  failure, or ``close()`` always releases the lease's threads, waiting
  only for batches already started.
- **Exception propagation** — a producer failure re-raises at the failed
  batch's position as the original exception with its original traceback.

``produce`` is any ``index -> Batch`` callable — typically a
:class:`repro.ingest.sources.BatchSource`, whose ``__len__`` also supplies
``num_batches``. This module deliberately never imports the sources (duck
typing only), so ``repro.ingest`` stays cycle-free.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .metrics import IngestMetrics
from .queue import BackpressureQueue, QueueClosed

__all__ = ["PipelinedFeeder", "QueueConfig"]


@dataclass(frozen=True)
class QueueConfig:
    """Recipe for the per-lease backpressure queue (see
    :class:`~repro.ingest.queue.BackpressureQueue` for semantics)."""

    capacity: int = 4
    policy: str = "block"
    high_watermark: int | None = None
    low_watermark: int | None = None
    spill_dir: str | None = None

    def build(self) -> BackpressureQueue:
        return BackpressureQueue(
            self.capacity,
            policy=self.policy,
            high_watermark=self.high_watermark,
            low_watermark=self.low_watermark,
            spill_dir=self.spill_dir,
        )


class _Failure:
    """Queue-borne wrapper for a producer exception (re-raised in order)."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class _Sentinel:
    """End-of-epoch marker.

    The spill_to_disk queue policy pickles whatever it holds, so the marker
    must keep its identity across a pickle round trip — a bare ``object()``
    would come back as a different instance and the consumer would wait for
    an end-of-epoch that never arrives.
    """

    __slots__ = ()

    def __reduce__(self):
        return (_get_sentinel, ())


_SENTINEL = _Sentinel()


def _get_sentinel() -> "_Sentinel":
    return _SENTINEL


class _Lease:
    """One iteration's worth of resources: pool, queue, coordinator."""

    def __init__(self, feeder: "PipelinedFeeder") -> None:
        self.feeder = feeder
        self.pool = ThreadPoolExecutor(
            max_workers=feeder.workers, thread_name_prefix="rap-feeder"
        )
        self.queue = feeder.queue_config.build()
        self.started_at = time.perf_counter()
        self._released = False
        self.coordinator = threading.Thread(
            target=self._coordinate, name="rap-feeder-coordinator", daemon=True
        )
        self.coordinator.start()

    def _coordinate(self) -> None:
        """Keep ≤ depth producer futures in flight; enqueue results in order.

        A released lease closes the queue, so the next ``put`` raises
        :class:`QueueClosed` and ends this thread.
        """
        feeder, queue = self.feeder, self.queue
        produce = feeder._producer()
        pending: deque = deque()
        next_index = 0
        try:
            while pending or next_index < feeder.num_batches:
                while next_index < feeder.num_batches and len(pending) < feeder.depth:
                    pending.append(self.pool.submit(produce, next_index))
                    next_index += 1
                try:
                    item = pending.popleft().result()
                except BaseException as exc:  # noqa: BLE001 - forwarded to consumer
                    queue.put(_Failure(exc))
                    return
                queue.put(item)
            queue.put(_SENTINEL)
        except QueueClosed:
            pass  # consumer went away; nothing left to deliver to
        except BaseException as exc:  # noqa: BLE001 - never strand the consumer
            try:
                queue.put(_Failure(exc))
            except QueueClosed:
                pass
        finally:
            for fut in pending:
                fut.cancel()

    def release(self) -> None:
        """Tear the lease down; waits only for already-started batches."""
        if self._released:
            return
        self._released = True
        # Wakes a coordinator blocked in put() and drops buffered items.
        self.queue.drain_and_discard()
        self.pool.shutdown(wait=True, cancel_futures=True)
        self.coordinator.join(timeout=30.0)
        metrics = self.feeder.metrics
        if metrics is not None:
            wall = time.perf_counter() - self.started_at
            metrics.absorb_queue_stats(self.queue.stats(), wall_s=wall)


class PipelinedFeeder:
    """Depth-``d`` background batch producer with a multi-use lifecycle.

    Parameters
    ----------
    produce:
        ``index -> batch`` callable (a :class:`BatchSource` qualifies).
    num_batches:
        Batches per iteration; defaults to ``len(produce)`` when the
        producer is sized (every ingest source is).
    depth:
        Maximum batches in flight (2 = classic double buffering).
    workers:
        Thread count of each leased pool.
    queue:
        :class:`QueueConfig` of the fresh
        :class:`~repro.ingest.queue.BackpressureQueue` each iteration
        delivers through, so overload policies (``block`` /
        ``drop_oldest`` / ``spill_to_disk``) and stall accounting apply.
        An invalid configuration raises ``ValueError`` here.
    metrics:
        Optional :class:`~repro.ingest.metrics.IngestMetrics`; pass one
        bound to the run's telemetry registry to expose ingest health.
    """

    def __init__(
        self,
        produce: Callable[[int], Any],
        num_batches: int | None = None,
        depth: int = 2,
        workers: int = 1,
        queue: QueueConfig = QueueConfig(),
        metrics: IngestMetrics | None = None,
    ) -> None:
        if num_batches is None:
            try:
                num_batches = len(produce)  # type: ignore[arg-type]
            except TypeError:
                raise ValueError(
                    "num_batches not given and the producer has no len(); "
                    "pass num_batches explicitly"
                ) from None
        if num_batches < 0:
            raise ValueError("num_batches must be non-negative")
        if depth < 1:
            raise ValueError("depth must be at least 1 (2 = double buffering)")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        queue.build()  # the queue's own checks, before any lease exists
        self.produce = produce
        self.num_batches = num_batches
        self.depth = depth
        self.workers = workers
        self.queue_config = queue
        self.metrics = metrics
        self._closed = False
        self._leases: set[_Lease] = set()
        self._lease_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "PipelinedFeeder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the feeder's lifecycle: release every live lease and refuse
        further iteration. Idempotent; never leaks threads."""
        self._closed = True
        with self._lease_lock:
            leases, self._leases = list(self._leases), set()
        for lease in leases:
            lease.release()

    @property
    def closed(self) -> bool:
        return self._closed

    def _producer(self) -> Callable[[int], Any]:
        """The callable submitted to the pool: ``produce``, wrapped with
        wall-time accounting when metrics are bound."""
        metrics = self.metrics
        if metrics is None:
            return self.produce

        def produce_timed(index: int):
            start = time.perf_counter()
            out = self.produce(index)
            metrics.record_produce(time.perf_counter() - start)
            return out

        return produce_timed

    def _lease(self) -> _Lease:
        if self._closed:
            raise RuntimeError("feeder is closed")
        lease = _Lease(self)
        with self._lease_lock:
            # close() may have won the race; don't strand a fresh pool.
            if self._closed:
                lease.release()
                raise RuntimeError("feeder is closed")
            self._leases.add(lease)
        return lease

    def _retire(self, lease: _Lease) -> None:
        with self._lease_lock:
            self._leases.discard(lease)
        lease.release()

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        """Deliver one epoch from a fresh lease's queue, in order."""
        lease = self._lease()
        try:
            while True:
                try:
                    item = lease.queue.get()
                except QueueClosed:
                    break  # closed underneath us (feeder.close() mid-iteration)
                if item is _SENTINEL:
                    if self.metrics is not None:
                        self.metrics.record_epoch()
                    break
                if isinstance(item, _Failure):
                    raise item.exc  # the original object and traceback
                if self.metrics is not None:
                    self.metrics.record_delivery()
                yield item
        finally:
            # Reached on exhaustion, consumer break, or producer failure:
            # release THIS lease only — the feeder itself stays open.
            self._retire(lease)
