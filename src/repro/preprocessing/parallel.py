"""Multi-core compiled data path: sharded programs over shared memory.

The single-core engine (:mod:`repro.preprocessing.engine`) lowers a graph
set into one flat program. This module scales that program across cores:

- **Op-level sharding** (:func:`partition_ops`) -- the global dependency
  graph of a lowered op/slot plan decomposes into connected components
  (per-feature chains, usually), which are packed into ``num_shards``
  balanced shards by longest-processing-time over the ops' CPU cost
  model. Partitioning is a pure function of the plan, so the shard ->
  worker map is deterministic at any worker count.
- **Persistent, lazily-spawned workers** -- each shard compiles (in its
  own process, on first ``execute``) into a :class:`CompiledProgram`
  over the *same* slot plan as the single-core lowering. Fused kernels
  are elementwise over concatenated member segments, so executing a
  subset of a slot's members in another process produces byte-for-byte
  the column the single-core step would -- the determinism argument
  behind the bit-identity guarantee (enforced property-based by
  ``tests/preprocessing/test_engine_equivalence.py``).
- **Shared-memory arenas** -- workers lease output buffers from a
  :class:`ShardArena` that bump-allocates inside named
  ``multiprocessing.shared_memory`` segments, so the parent assembles the
  output batch from zero-copy views; only tiny descriptor tuples cross
  the pipe. Segment lifecycle is leak-proof: every name carries the
  engine's prefix, the parent unlinks all known names on ``close()``
  and then sweeps ``/dev/shm`` for the prefix, covering worker crashes
  at any point (tested under SIGKILL).

Lease semantics match the single-core engine: a batch's output views are
valid until the next ``execute`` (pass ``copy_outputs=True`` otherwise).
"""

from __future__ import annotations

import heapq
import itertools
import os
import pickle
import traceback
import weakref
from multiprocessing import get_context, shared_memory
from pathlib import Path
from time import perf_counter

import numpy as np

from .data import Batch, DenseColumn, SparseColumn
from .engine import (
    CompiledProgram,
    _global_deps,
    _group_and_lower,
    _required_inputs,
    plan_slots,
)
from .executor import MissingColumnsError
from .graph import GraphSet
from .ops import PreprocessingOp

__all__ = [
    "EngineMetrics",
    "EngineWorkerError",
    "ParallelEngine",
    "ShardArena",
    "attach_segment",
    "leaked_segments",
    "partition_ops",
    "unlink_segment",
]

_ALIGN = 64  # cache-line align every allocation inside a segment
_PAGE = 4096
_MIN_SEGMENT_BYTES = 1 << 20
_SHM_DIR = Path("/dev/shm")

_engine_ids = itertools.count()


class EngineWorkerError(RuntimeError):
    """A shard worker crashed or reported a failure."""


def _align(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) & ~(_ALIGN - 1)


def _round_segment(nbytes: int) -> int:
    nbytes = max(nbytes, _MIN_SEGMENT_BYTES)
    return (nbytes + _PAGE - 1) & ~(_PAGE - 1)


def _noop() -> None:
    pass


def _defuse(shm: shared_memory.SharedMemory) -> shared_memory.SharedMemory:
    """Disarm ``shm.close`` so GC never raises on live numpy views.

    The engine hands out zero-copy views whose lifetime it does not
    control (lease semantics: valid until the next execute). If the
    ``SharedMemory`` object is collected while such a view is alive,
    ``__del__`` -> ``close`` raises ``BufferError: cannot close exported
    pointers exist``. Shadowing ``close`` keeps the mapping alive until
    the views (which hold the buffer via their ``base`` chain) die, at
    which point the mmap closes itself; the *unlink* side is unaffected.
    """
    shm.close = _noop
    return shm


def _release_fd(shm: shared_memory.SharedMemory) -> None:
    """Close a defused segment's file descriptor (the mmap outlives it)."""
    fd = getattr(shm, "_fd", -1)
    if fd >= 0:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover
            pass
        shm._fd = -1


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment for zero-copy reads.

    Attaching re-registers the name with the resource tracker, which is
    harmless: the tracker's cache is a set, so the single registration is
    cleared by whoever calls ``unlink`` -- exactly once per name.
    """
    return _defuse(shared_memory.SharedMemory(name=name))


def unlink_segment(name: str) -> bool:
    """Best-effort unlink of a (possibly already gone) segment by name.

    ``SharedMemory.unlink`` also unregisters the name from the resource
    tracker, retiring the registration made at creation time.
    """
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - raced with another unlink
        pass
    try:
        seg.close()
    except BufferError:  # pragma: no cover
        pass
    return True


def leaked_segments(prefix: str) -> list[str]:
    """Names under ``/dev/shm`` carrying ``prefix`` (for leak tests)."""
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-POSIX fallback
        return []
    return sorted(p.name for p in _SHM_DIR.glob(prefix + "*"))


def _sweep_prefix(prefix: str) -> int:
    """Unlink every segment whose name starts with ``prefix``."""
    removed = 0
    for name in leaked_segments(prefix):
        if unlink_segment(name):
            removed += 1
    return removed


def _addr_of(buf) -> int:
    return np.frombuffer(buf, dtype=np.uint8).__array_interface__["data"][0]


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------


def partition_ops(
    ops: list[PreprocessingOp], num_shards: int, rows: int
) -> list[list[int]]:
    """Partition ops into <= ``num_shards`` dependency-closed shards.

    Producer->consumer edges union ops into connected components, so every
    dependency of a shard op lives in the same shard and shards only read
    raw batch columns. Components are packed longest-processing-time
    first (by modeled CPU latency, first-op-index tiebreak) into the
    least-loaded shard -- deterministic for a given plan. Returns op-index
    lists, each ascending, ordered by shard id; empty shards are dropped.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    n = len(ops)
    produced = {op.output: i for i, op in enumerate(ops)}
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, op in enumerate(ops):
        for name in op.inputs:
            i = produced.get(name)
            if i is not None and i != j:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    components: dict[int, list[int]] = {}
    for i in range(n):
        components.setdefault(find(i), []).append(i)
    weighted = sorted(
        (
            (-sum(ops[i].cpu_latency_us(rows) for i in members), members[0], members)
            for members in components.values()
        ),
    )
    loads = [(0.0, shard_id) for shard_id in range(min(num_shards, len(weighted)))]
    heapq.heapify(loads)
    shards: list[list[int]] = [[] for _ in range(len(loads))]
    for neg_weight, _, members in weighted:
        load, shard_id = heapq.heappop(loads)
        shards[shard_id].extend(members)
        heapq.heappush(loads, (load - neg_weight, shard_id))
    return [sorted(s) for s in shards if s]


def _compile_shard(
    ops: list[PreprocessingOp],
    slots: list[int],
    rows: int,
    arena,
) -> CompiledProgram:
    """Lower one shard's (ops, slots) slice with the engine's own grouper."""
    produced, _ = _global_deps(ops)
    return CompiledProgram(
        _group_and_lower(ops, slots),
        rows=rows,
        required_inputs=_required_inputs(ops, produced),
        num_ops=len(ops),
        arena=arena,
    )


# ----------------------------------------------------------------------
# Shared-memory arena (worker side)
# ----------------------------------------------------------------------


class ShardArena:
    """Bump allocator over named shared-memory segments.

    Implements the :class:`BufferArena` protocol the compiled engine
    drives (``reset``/``take``): leases are views into the current
    segment, ``reset`` rewinds the cursor (invalidating the previous
    batch's leases, the engine's documented lease contract). Overflow
    mid-batch opens an additional segment; at the next ``reset`` the
    arena consolidates into one doubled segment and reports the old names
    through ``drain_retired`` so the parent can unlink them.
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._seq = itertools.count()
        self._segments: list[shared_memory.SharedMemory] = []
        self._addrs: list[int] = []
        self._seg_idx = 0
        self._offset = 0
        self._retired: list[str] = []
        self._fresh: list[str] = []
        self.allocated_segments = 0
        self.allocated_bytes = 0
        self._grow(_MIN_SEGMENT_BYTES)

    # -- segment management -------------------------------------------

    def _grow(self, nbytes: int) -> None:
        name = f"{self.prefix}-{next(self._seq)}"
        seg = _defuse(shared_memory.SharedMemory(name=name, create=True, size=nbytes))
        self._segments.append(seg)
        self._addrs.append(_addr_of(seg.buf))
        self.allocated_segments += 1
        self.allocated_bytes += seg.size
        self._fresh.append(name)

    def reset(self) -> None:
        if len(self._segments) > 1:
            # Consolidate: one segment sized for the whole previous batch
            # (doubled for headroom). Old segments are dropped without
            # close() -- the parent may still hold views -- and their
            # names surface in drain_retired() for the parent to unlink.
            total = sum(seg.size for seg in self._segments)
            old = self._segments
            self._retired.extend(seg.name for seg in old)
            self.allocated_bytes -= sum(seg.size for seg in old)
            for seg in old:
                _release_fd(seg)
            self._segments = []
            self._addrs = []
            self._grow(_round_segment(2 * total))
        self._seg_idx = 0
        self._offset = 0

    def drain_retired(self) -> list[str]:
        out, self._retired = self._retired, []
        return out

    def drain_fresh(self) -> list[str]:
        out, self._fresh = self._fresh, []
        return out

    # -- BufferArena protocol ------------------------------------------

    def take(self, size: int, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = int(size)
        nbytes = size * dtype.itemsize
        while True:
            seg = self._segments[self._seg_idx]
            if self._offset + nbytes <= seg.size:
                view = np.frombuffer(seg.buf, dtype=dtype, count=size, offset=self._offset)
                self._offset += _align(nbytes)
                return view
            if self._seg_idx + 1 < len(self._segments):
                self._seg_idx += 1
                self._offset = 0
                continue
            self._grow(_round_segment(max(2 * nbytes, seg.size)))
            self._seg_idx = len(self._segments) - 1
            self._offset = 0

    def locate(self, arr: np.ndarray) -> tuple[str, int] | None:
        """(segment name, byte offset) when ``arr`` lives in this arena."""
        if arr.size == 0:
            return None
        ptr = arr.__array_interface__["data"][0]
        end = ptr + arr.nbytes
        for seg, addr in zip(self._segments, self._addrs):
            if addr <= ptr and end <= addr + seg.size:
                return seg.name, ptr - addr
        return None

    def segment_names(self) -> list[str]:
        return [seg.name for seg in self._segments]

    def stats(self) -> dict:
        return {
            "segments": len(self._segments),
            "segment_bytes": sum(seg.size for seg in self._segments),
            "allocated_segments": self.allocated_segments,
        }


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _describe_array(arr: np.ndarray, arena: ShardArena, extra_pools, iota: np.ndarray):
    """Descriptor for one output array, copying heap arrays into shm."""
    if arr is iota:
        return ("iota",)
    if arr.size == 0:
        return ("empty", arr.dtype.str)
    loc = arena.locate(arr)
    if loc is None:
        for pool_name, pool_addr, pool_size in extra_pools:
            ptr = arr.__array_interface__["data"][0]
            if pool_addr <= ptr and ptr + arr.nbytes <= pool_addr + pool_size:
                return ("shm", pool_name, ptr - pool_addr, arr.dtype.str, arr.shape[0])
        loc = _stage_heap_array(arr, arena)
    name, offset = loc
    return ("shm", name, offset, arr.dtype.str, arr.shape[0])


def _stage_heap_array(arr: np.ndarray, arena: ShardArena) -> tuple[str, int]:
    """Copy an output that lives on the worker's heap into its shm arena.

    Only steps without a fused lowering (``_GenericStep``) produce heap
    outputs; every fused step leases its outputs from the arena directly.
    """
    staged = arena.take(arr.shape[0], arr.dtype)
    np.copyto(staged, np.ascontiguousarray(arr))
    return arena.locate(staged)


def _worker_main(conn, payload: bytes) -> None:
    """Shard worker loop: attach inputs, execute, reply with descriptors."""
    spec = pickle.loads(payload)
    try:
        arena = ShardArena(spec["prefix"])
        program = _compile_shard(spec["ops"], spec["slots"], spec["rows"], arena)
        produced = [op.output for op in spec["ops"]]
        conn.send(
            (
                "ready",
                {
                    "steps": program.num_steps,
                    "max_fusion_degree": program.max_fusion_degree,
                    "segments": arena.drain_fresh(),
                },
            )
        )
    except Exception:
        conn.send(("err", -1, traceback.format_exc()))
        return

    input_shm = None
    input_views: tuple[str, int, int] | None = None  # (name, addr, size)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # parent died: exit, parent owns unlinks
            return
        if msg is None:
            conn.send(("bye", arena.segment_names()))
            return
        _, seq, seg_name, layout = msg
        try:
            if input_shm is None or input_shm.name != seg_name:
                input_shm = attach_segment(seg_name)
                input_views = (seg_name, _addr_of(input_shm.buf), input_shm.size)
            batch = _decode_input_batch(input_shm, layout)
            t0 = perf_counter()
            out = program.execute(batch)
            busy = perf_counter() - t0
            pools = [input_views]
            columns = []
            for name in produced:
                col = out.dense.get(name) or out.sparse.get(name)
                if isinstance(col, DenseColumn):
                    desc = (
                        name,
                        "dense",
                        _describe_array(col.values, arena, pools, program.row_iota),
                    )
                else:
                    desc = (
                        name,
                        "sparse",
                        _describe_array(col.offsets, arena, pools, program.row_iota),
                        _describe_array(col.values, arena, pools, program.row_iota),
                        col.hash_size,
                    )
                columns.append(desc)
            conn.send(
                (
                    "ok",
                    seq,
                    columns,
                    busy,
                    {
                        "fresh": arena.drain_fresh(),
                        "retired": arena.drain_retired(),
                        "segment_bytes": arena.stats()["segment_bytes"],
                    },
                )
            )
        except Exception:
            conn.send(("err", seq, traceback.format_exc()))


def _decode_input_batch(shm, layout) -> Batch:
    dense = {}
    sparse = {}
    for name, entry in layout.items():
        kind = entry[0]
        if kind == "dense":
            _, dtype, offset, length = entry
            arr = np.frombuffer(shm.buf, dtype=np.dtype(dtype), count=length, offset=offset)
            dense[name] = DenseColumn.trusted(name, arr)
        else:
            _, o_off, o_len, v_dtype, v_off, v_len, hash_size = entry
            offsets = np.frombuffer(shm.buf, dtype=np.int64, count=o_len, offset=o_off)
            if v_len:
                values = np.frombuffer(
                    shm.buf, dtype=np.dtype(v_dtype), count=v_len, offset=v_off
                )
            else:
                values = np.empty(0, dtype=np.dtype(v_dtype))
            sparse[name] = SparseColumn.trusted(name, offsets, values, hash_size)
    batch = Batch.__new__(Batch)
    batch.dense = dense
    batch.sparse = sparse
    return batch


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------


class EngineMetrics:
    """``rap_engine_*`` metric families for the multi-core data path.

    Like :class:`repro.ingest.metrics.IngestMetrics`: with
    ``registry=None`` a private registry is created so the engine can
    always record; pass the run's registry to surface the families in its
    telemetry artifacts.
    """

    def __init__(self, registry=None) -> None:
        if registry is None:
            from repro.telemetry.registry import MetricsRegistry

            registry = MetricsRegistry()
        self.registry = registry
        self.batches_total = registry.counter(
            "rap_engine_batches_total", "Batches executed by the parallel engine."
        )
        self.exec_seconds_total = registry.counter(
            "rap_engine_exec_seconds_total",
            "Parent-side wall seconds inside ParallelEngine.execute.",
        )
        self.shm_bytes_in_flight = registry.gauge(
            "rap_engine_shm_bytes_in_flight",
            "Bytes currently mapped in engine shared-memory segments.",
        )
        self.shm_segments = registry.gauge(
            "rap_engine_shm_segments", "Live engine shared-memory segments."
        )

    def worker_busy(self, worker: int, seconds: float) -> None:
        self.registry.counter(
            "rap_engine_worker_busy_seconds_total",
            "Per-worker seconds spent inside shard program execution.",
            labels={"worker": str(worker)},
        ).inc(seconds)

    def worker_busy_fraction(self, worker: int, fraction: float) -> None:
        self.registry.gauge(
            "rap_engine_worker_busy_fraction",
            "Per-worker busy seconds / engine wall seconds (cumulative).",
            labels={"worker": str(worker)},
        ).set(fraction)


# ----------------------------------------------------------------------
# Parent-side engine
# ----------------------------------------------------------------------


class _WorkerHandle:
    __slots__ = ("process", "conn", "shard", "info", "busy_seconds")

    def __init__(self, process, conn, shard) -> None:
        self.process = process
        self.conn = conn
        self.shard = shard
        self.info: dict = {}
        self.busy_seconds = 0.0


class ParallelEngine:
    """Execute a graph set across a pool of shard workers, bit-identically.

    Drop-in peer of :func:`compile_graph_set`'s fused program: it lowers
    the same ASAP-level slots (:func:`plan_slots`) and keeps the same
    ``execute(batch, copy_outputs=False)`` contract, lease semantics and
    outputs to the bit. ``workers`` bounds the pool; the
    actual pool size is ``min(workers, number of dependency components)``.
    Workers spawn lazily on the first ``execute`` and persist until
    ``close()``; a finalizer sweeps the engine's segments if ``close()`` is
    never called.
    """

    def __init__(
        self,
        graph_set: GraphSet,
        workers: int = 2,
        metrics: EngineMetrics | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        ops, slots, produced = plan_slots(graph_set)
        self.rows = graph_set.rows
        self.num_ops = len(ops)
        self.workers = workers
        self.required_inputs = _required_inputs(ops, produced)
        self._ops = ops
        self._slots = slots
        self._shards = partition_ops(ops, workers, self.rows)
        self._produced_names = set(produced)
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self.prefix = f"rap-eng-{os.getpid()}-{next(_engine_ids)}"
        self.batches_executed = 0
        self._seq = 0
        self._wall_seconds = 0.0
        self._worker_handles: list[_WorkerHandle] = []
        self._started = False
        self._broken: str | None = None
        self._closed = False
        self._input_shm: shared_memory.SharedMemory | None = None
        self._input_gen = 0
        self._attached: dict[str, shared_memory.SharedMemory] = {}
        self._known_segments: set[str] = set()
        self._row_iota = np.arange(self.rows + 1, dtype=np.int64)
        self._row_iota.flags.writeable = False
        # weakref.finalize self-registers for interpreter exit, so segments
        # are swept even when close() is never called.
        self._finalizer = weakref.finalize(self, _cleanup_engine, self.prefix)

    # -- introspection --------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def num_workers(self) -> int:
        """Pool size actually used (lazily spawned on first execute)."""
        return len(self._shards)

    def shard_sizes(self) -> list[int]:
        return [len(s) for s in self._shards]

    def summary(self) -> dict:
        steps = 0
        max_deg = 0
        for handle in self._worker_handles:
            steps += handle.info.get("steps", 0)
            max_deg = max(max_deg, handle.info.get("max_fusion_degree", 0))
        return {
            "ops": self.num_ops,
            "steps": steps,
            "max_fusion_degree": max_deg,
            "batches_executed": self.batches_executed,
            "workers": self.num_workers,
            "shards": self.shard_sizes(),
            "shm_bytes": self.shm_bytes_in_flight(),
            "worker_busy_fraction": self.worker_busy_fractions(),
        }

    def shm_bytes_in_flight(self) -> int:
        total = self._input_shm.size if self._input_shm is not None else 0
        for handle in self._worker_handles:
            total += handle.info.get("segment_bytes", 0)
        return total

    def worker_busy_fractions(self) -> dict[int, float]:
        if not self._wall_seconds:
            return {}
        return {
            i: round(handle.busy_seconds / self._wall_seconds, 4)
            for i, handle in enumerate(self._worker_handles)
        }

    # -- lifecycle ------------------------------------------------------

    def _start(self) -> None:
        # Start the parent's resource tracker *before* forking so every
        # worker inherits it; otherwise each worker lazily spawns its own
        # tracker, which then warns about segments the parent unlinked.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker impl detail
            pass
        ctx = get_context()
        for i, shard in enumerate(self._shards):
            spec = {
                "ops": [self._ops[j] for j in shard],
                "slots": [self._slots[j] for j in shard],
                "rows": self.rows,
                "prefix": f"{self.prefix}-w{i}",
            }
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, pickle.dumps(spec)),
                name=f"rap-engine-{i}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._worker_handles.append(_WorkerHandle(process, parent_conn, shard))
        for i, handle in enumerate(self._worker_handles):
            reply = self._recv(i, handle)
            if reply[0] != "ready":
                raise EngineWorkerError(f"worker {i} failed to compile: {reply[2]}")
            handle.info = reply[1]
            self._known_segments.update(handle.info.pop("segments", []))
        self._started = True

    def _recv(self, worker_id: int, handle: _WorkerHandle):
        try:
            return handle.conn.recv()
        except (EOFError, OSError) as exc:
            self._broken = f"worker {worker_id} died ({type(exc).__name__})"
            raise EngineWorkerError(
                f"worker {worker_id} (pid {handle.process.pid}) died mid-execution; "
                "the engine is closed to unlink its shared-memory segments"
            ) from exc

    def close(self) -> None:
        """Shut down workers and unlink every engine segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._worker_handles:
            try:
                handle.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for handle in self._worker_handles:
            try:
                # Drain until the "bye" (stale exec replies may precede it)
                # so the worker's final segment roster is captured.
                while handle.conn.poll(1.0):
                    reply = handle.conn.recv()
                    if reply and reply[0] == "bye":
                        self._known_segments.update(reply[1])
                        break
            except (EOFError, OSError):
                pass
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        if self._input_shm is not None:
            self._known_segments.add(self._input_shm.name)
            _release_fd(self._input_shm)
            self._input_shm = None
        for shm in self._attached.values():
            _release_fd(shm)
        self._attached.clear()
        for name in sorted(self._known_segments):
            unlink_segment(name)
        self._known_segments.clear()
        _sweep_prefix(self.prefix)
        if self.metrics is not None:
            self.metrics.shm_bytes_in_flight.set(0)
            self.metrics.shm_segments.set(0)
        self._finalizer.detach()

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------

    def _ensure_input_segment(self, nbytes: int) -> None:
        needed = _round_segment(nbytes)
        if self._input_shm is not None and self._input_shm.size >= needed:
            return
        old = self._input_shm
        name = f"{self.prefix}-in{self._input_gen}"
        self._input_gen += 1
        self._input_shm = _defuse(
            shared_memory.SharedMemory(name=name, create=True, size=needed)
        )
        self._known_segments.add(name)
        if old is not None:
            # Workers re-attach by name per exec message, and unlink does
            # not invalidate existing mappings, so the old generation can
            # go away immediately.
            self._known_segments.discard(old.name)
            unlink_segment(old.name)

    def _write_inputs(self, batch: Batch) -> dict:
        arrays: list[tuple[np.ndarray, int]] = []
        layout: dict[str, tuple] = {}
        cursor = 0

        def stage(arr: np.ndarray) -> int:
            nonlocal cursor
            offset = cursor
            arrays.append((arr, offset))
            cursor += _align(arr.nbytes)
            return offset

        for name in sorted(self.required_inputs):
            col = batch.dense.get(name)
            if col is not None:
                offset = stage(col.values)
                layout[name] = ("dense", col.values.dtype.str, offset, col.values.shape[0])
                continue
            col = batch.sparse[name]
            o_off = stage(col.offsets)
            v_off = stage(col.values) if col.values.shape[0] else 0
            layout[name] = (
                "sparse",
                o_off,
                col.offsets.shape[0],
                col.values.dtype.str,
                v_off,
                col.values.shape[0],
                col.hash_size,
            )
        self._ensure_input_segment(max(cursor, _ALIGN))
        buf = self._input_shm.buf
        for arr, offset in arrays:
            if arr.nbytes == 0:
                continue
            view = np.frombuffer(buf, dtype=arr.dtype, count=arr.shape[0], offset=offset)
            np.copyto(view, arr)
        return layout

    def _resolve_desc(self, desc) -> np.ndarray:
        kind = desc[0]
        if kind == "iota":
            return self._row_iota
        if kind == "empty":
            return np.empty(0, dtype=np.dtype(desc[1]))
        _, seg_name, offset, dtype, length = desc
        shm = self._attached.get(seg_name)
        if shm is None:
            if self._input_shm is not None and seg_name == self._input_shm.name:
                shm = self._input_shm
            else:
                shm = attach_segment(seg_name)
            self._attached[seg_name] = shm
        return np.frombuffer(shm.buf, dtype=np.dtype(dtype), count=length, offset=offset)

    def execute(self, batch: Batch, copy_outputs: bool = False) -> Batch:
        """Run every shard against ``batch`` and assemble the output.

        Same contract as :meth:`CompiledProgram.execute`: the returned
        batch carries the input columns (referenced, never mutated) plus
        every produced column; produced columns are views into engine
        shared memory valid until the next ``execute`` unless
        ``copy_outputs=True``.
        """
        if self._closed:
            raise EngineWorkerError("engine is closed")
        if self._broken:
            raise EngineWorkerError(f"engine is broken: {self._broken}")
        if batch.size != self.rows:
            raise ValueError(
                f"batch has {batch.size} rows but the graph set was built for {self.rows}"
            )
        available = set(batch.dense) | set(batch.sparse)
        missing = sorted(self.required_inputs - available)
        if missing:
            raise MissingColumnsError(missing)
        t0 = perf_counter()
        try:
            if not self._started:
                self._start()
            layout = self._write_inputs(batch)
            seq = self._seq = self._seq + 1
            for i, handle in enumerate(self._worker_handles):
                try:
                    handle.conn.send(("exec", seq, self._input_shm.name, layout))
                except (BrokenPipeError, OSError) as exc:
                    self._broken = f"worker {i} died ({type(exc).__name__})"
                    raise EngineWorkerError(
                        f"worker {i} (pid {handle.process.pid}) died before "
                        "dispatch; the engine is closed to unlink its "
                        "shared-memory segments"
                    ) from exc
            replies = []
            for i, handle in enumerate(self._worker_handles):
                reply = self._recv(i, handle)
                if reply[0] == "err":
                    self._broken = f"worker {i} raised"
                    raise EngineWorkerError(f"worker {i} failed:\n{reply[2]}")
                replies.append(reply)
        except Exception:
            if self._broken:
                self.close()
            raise
        dense = dict(batch.dense)
        sparse = dict(batch.sparse)
        for i, (_, _, columns, busy, seg_info) in enumerate(replies):
            handle = self._worker_handles[i]
            handle.busy_seconds += busy
            self.metrics.worker_busy(i, busy)
            handle.info["segment_bytes"] = seg_info["segment_bytes"]
            self._known_segments.update(seg_info["fresh"])
            for name in seg_info["retired"]:
                stale = self._attached.pop(name, None)
                if stale is not None:
                    _release_fd(stale)
                self._known_segments.discard(name)
                unlink_segment(name)
            for desc in columns:
                name, kind = desc[0], desc[1]
                if kind == "dense":
                    col = DenseColumn.trusted(name, self._resolve_desc(desc[2]))
                    if copy_outputs:
                        col = col.copy()
                    dense[name] = col
                else:
                    col = SparseColumn.trusted(
                        name,
                        self._resolve_desc(desc[2]),
                        self._resolve_desc(desc[3]),
                        desc[4],
                    )
                    if copy_outputs:
                        col = col.copy()
                    sparse[name] = col
        out = Batch.__new__(Batch)
        out.dense = dense
        out.sparse = sparse
        self.batches_executed += 1
        wall = perf_counter() - t0
        self._wall_seconds += wall
        self._record_metrics(wall)
        return out

    def _record_metrics(self, wall: float) -> None:
        m = self.metrics
        m.batches_total.inc()
        m.exec_seconds_total.inc(wall)
        fractions = self.worker_busy_fractions()
        for i in range(len(self._worker_handles)):
            m.worker_busy_fraction(i, fractions.get(i, 0.0))
        m.shm_bytes_in_flight.set(self.shm_bytes_in_flight())
        m.shm_segments.set(len(self._known_segments))


def _cleanup_engine(prefix: str) -> None:
    """Finalizer safety net: unlink anything the engine left behind."""
    _sweep_prefix(prefix)
