"""Inter-batch pipelined feeding (§6.3) on top of leased worker pools.

:class:`PipelinedFeeder` prepares batch *i+1* in the background while the
consumer works on batch *i* — the paper's inter-batch interleaving on real
data. This rewrite fixes the original's silent single-use lifecycle: the
old ``__iter__`` called ``close()`` in its ``finally``, so ``list(f);
list(f)`` raised a bare ``RuntimeError: feeder is closed``. Now every
``__iter__`` leases a *fresh* pool (and, in queue mode, a fresh
:class:`~repro.ingest.queue.BackpressureQueue`); exhausting or abandoning
the iterator releases the lease but leaves the feeder reusable. Only the
explicit ``close()`` / ``with``-exit ends the lifecycle, after which
iteration raises ``RuntimeError`` as before.

Guarantees (unchanged from the original, plus re-iterability):

- **In-order delivery** — batch ``i`` always precedes ``i+1``.
- **Bounded lookahead** — at most ``depth`` batches in flight; with a
  queue, in-memory buffering is additionally bounded by the queue's
  overload policy.
- **Clean, bounded shutdown** — exhaustion, consumer ``break``, producer
  failure, or ``close()`` always releases the lease's workers, waiting
  only for batches already started.
- **Exception propagation** — a producer failure re-raises at the failed
  batch's position: thread mode with the original traceback, process mode
  with the remote traceback chained via ``__cause__``.

``produce`` is any ``index -> Batch`` callable — typically a
:class:`repro.ingest.sources.BatchSource`, whose ``__len__`` also supplies
``num_batches``. This module deliberately never imports the sources (duck
typing only), so ``repro.ingest`` stays cycle-free.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
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

    __slots__ = ("index", "exc")

    def __init__(self, index: int, exc: BaseException) -> None:
        self.index = index
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
        if feeder.mode == "thread":
            self.pool: Executor = ThreadPoolExecutor(
                max_workers=feeder.workers, thread_name_prefix="rap-feeder"
            )
        else:
            self.pool = ProcessPoolExecutor(max_workers=feeder.workers)
        self.queue: BackpressureQueue | None = (
            feeder.queue_config.build() if feeder.queue_config is not None else None
        )
        self.stop = threading.Event()
        self.coordinator: threading.Thread | None = None
        self.started_at = time.perf_counter()
        self._released = False

    def start_coordinator(self) -> None:
        assert self.queue is not None
        self.coordinator = threading.Thread(
            target=self._coordinate, name="rap-feeder-coordinator", daemon=True
        )
        self.coordinator.start()

    def _coordinate(self) -> None:
        """Keep ≤ depth producer futures in flight; enqueue results in order."""
        feeder, queue = self.feeder, self.queue
        assert queue is not None
        produce = feeder._producer()
        pending: deque = deque()
        next_index = 0
        try:
            while (pending or next_index < feeder.num_batches) and not self.stop.is_set():
                while next_index < feeder.num_batches and len(pending) < feeder.depth:
                    pending.append((next_index, self.pool.submit(produce, next_index)))
                    next_index += 1
                index, fut = pending.popleft()
                try:
                    item = fut.result()
                except BaseException as exc:  # noqa: BLE001 - forwarded to consumer
                    queue.put(_Failure(index, exc))
                    return
                queue.put(item)
            queue.put(_SENTINEL)
        except QueueClosed:
            pass  # consumer went away; nothing left to deliver to
        except BaseException as exc:  # noqa: BLE001 - never strand the consumer
            try:
                queue.put(_Failure(next_index, exc))
            except QueueClosed:
                pass
        finally:
            for _, fut in pending:
                fut.cancel()

    def release(self) -> None:
        """Tear the lease down; waits only for already-started batches."""
        if self._released:
            return
        self._released = True
        self.stop.set()
        if self.queue is not None:
            # Wakes a coordinator blocked in put() and drops buffered items.
            self.queue.drain_and_discard()
        self.pool.shutdown(wait=True, cancel_futures=True)
        if self.coordinator is not None:
            self.coordinator.join(timeout=30.0)
        metrics = self.feeder.metrics
        if metrics is not None and self.queue is not None:
            wall = time.perf_counter() - self.started_at
            metrics.absorb_queue_stats(self.queue.stats(), wall_s=wall)


class PipelinedFeeder:
    """Depth-``d`` background batch producer with a multi-use lifecycle.

    Parameters
    ----------
    produce:
        ``index -> batch`` callable (a :class:`BatchSource` qualifies).
        Must be picklable in ``process`` mode.
    num_batches:
        Batches per iteration; defaults to ``len(produce)`` when the
        producer is sized (every ingest source is).
    depth:
        Maximum batches in flight (2 = classic double buffering).
    mode:
        ``"thread"`` or ``"process"``.
    workers:
        Worker count of each leased pool.
    queue:
        Optional :class:`QueueConfig`. Without it, delivery is the direct
        futures window (producers can never run more than ``depth`` ahead);
        with it, results flow through a fresh
        :class:`~repro.ingest.queue.BackpressureQueue` per iteration, so
        overload policies (``block`` / ``drop_oldest`` / ``spill_to_disk``)
        and stall accounting apply.
    metrics:
        Optional :class:`~repro.ingest.metrics.IngestMetrics`; pass one
        bound to the run's telemetry registry to expose ingest health.
    """

    def __init__(
        self,
        produce: Callable[[int], Any],
        num_batches: int | None = None,
        depth: int = 2,
        mode: str = "thread",
        workers: int = 1,
        queue: QueueConfig | None = None,
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
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        self.produce = produce
        self.num_batches = num_batches
        self.depth = depth
        self.mode = mode
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
        further iteration. Idempotent; never leaks workers."""
        self._closed = True
        with self._lease_lock:
            leases, self._leases = list(self._leases), set()
        for lease in leases:
            lease.release()

    @property
    def closed(self) -> bool:
        return self._closed

    def _producer(self) -> Callable[[int], Any]:
        """The callable actually submitted to the pool.

        Thread mode wraps ``produce`` with wall-time accounting; process
        mode submits it raw (the wrapper's metrics objects aren't
        picklable, and remote timing would be lost anyway).
        """
        metrics = self.metrics
        if self.mode != "thread" or metrics is None:
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
        if self.queue_config is None:
            return self._iter_futures()
        return self._iter_queue()

    def _iter_futures(self) -> Iterator[Any]:
        """Direct futures window: the original delivery path, now per-lease."""
        lease = self._lease()
        pending: deque = deque()
        next_index = 0
        produce = self._producer()
        try:
            while pending or next_index < self.num_batches:
                while next_index < self.num_batches and len(pending) < self.depth:
                    pending.append(lease.pool.submit(produce, next_index))
                    next_index += 1
                # .result() re-raises a producer exception: thread mode with
                # the original traceback, process mode with the remote
                # traceback as __cause__.
                batch = pending.popleft().result()
                if self.metrics is not None:
                    self.metrics.record_delivery()
                yield batch
            if self.metrics is not None:
                self.metrics.record_epoch()
        finally:
            # Reached on exhaustion, consumer break, or producer failure:
            # release THIS lease only — the feeder itself stays open.
            for fut in pending:
                fut.cancel()
            self._retire(lease)

    def _iter_queue(self) -> Iterator[Any]:
        """Queue delivery: a coordinator keeps the window full and the
        backpressure queue applies the overload policy between it and us."""
        lease = self._lease()
        assert lease.queue is not None
        lease.start_coordinator()
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
                    # Thread mode: the original exception object, original
                    # traceback. Process mode: already carries the remote
                    # traceback via __cause__ (ProcessPoolExecutor semantics).
                    raise item.exc
                if self.metrics is not None:
                    self.metrics.record_delivery()
                yield item
        finally:
            self._retire(lease)
