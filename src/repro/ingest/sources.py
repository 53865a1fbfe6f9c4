"""Pluggable batch sources: one URL-style spec string per source.

Every source is a *sharded, seekable batch generator*: ``batch(i)`` is a
pure function of the index (safe to retry, safe to fan out across a
pool), ``len(source)`` is the number of batches this shard owns, and
``delay_s(i)`` is the arrival pacing (0 for files, the recorded
inter-batch gap for ``replay:``). The feeder calls ``source(i)`` which
sleeps the pacing delay and then materializes the batch — that sleep is
exactly the I/O latency the pipelined feeder exists to hide (paper §6.3).

Schemes
-------
- ``synthetic://kaggle?batch=4096&batches=64&seed=7&io_delay_ms=12`` —
  the deterministic Criteo-schema generator.
- ``csv:///path/day0.csv?batch=512&shard=3/8`` — header names columns
  ``dense_*`` / ``sparse_*``; sparse cells are space-separated ids.
- ``jsonl:///path/rows.jsonl?batch=256`` — schema header line, then one
  ``{"d": [...], "s": [[...], ...]}`` object per row.
- ``replay:///path/run.replay.jsonl?speed=2&pace=1`` — recorded
  Criteo-schema batch log with original timestamps; replayed at
  ``1/speed`` of recorded pace (``pace=0`` disables sleeping).

``build_source("specA,specB")`` joins several specs into a
:class:`MixedSource` that samples members by their ``weight=`` params,
deterministically from a seed. :class:`PacedSource` overlays an explicit
per-batch delay schedule (e.g. a forge arrival curve) on any source.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.preprocessing.data import (
    KAGGLE_SCHEMA,
    TERABYTE_SCHEMA,
    Batch,
    CriteoSchema,
    DenseColumn,
    SparseColumn,
    SyntheticCriteoDataset,
)

from .spec import IngestError, SourceSpec, parse_spec, split_specs

__all__ = [
    "BatchSource",
    "SyntheticSource",
    "CsvSource",
    "JsonlSource",
    "ReplaySource",
    "MixedSource",
    "PacedSource",
    "source",
    "build_source",
    "write_csv",
    "write_jsonl",
    "write_replay_log",
]

_MIN_HASH_SIZE = 1000


class BatchSource:
    """Base protocol: seekable batches plus optional arrival pacing."""

    def batch(self, index: int) -> Batch:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def delay_s(self, index: int) -> float:
        return 0.0

    def __call__(self, index: int) -> Batch:
        delay = self.delay_s(index)
        if delay > 0:
            time.sleep(delay)
        return self.batch(index)

    @property
    def rows_per_batch(self) -> int | None:
        """Rows per batch if uniform across the source, else ``None``."""
        return None

    def describe(self) -> str:
        return type(self).__name__

    def __iter__(self):
        for i in range(len(self)):
            yield self(i)


# ----------------------------------------------------------------------
# synthetic://
# ----------------------------------------------------------------------


class SyntheticSource(BatchSource):
    """The deterministic generator behind ``synthetic://kaggle|terabyte``."""

    def __init__(
        self,
        schema: CriteoSchema,
        *,
        batch_size: int = 2048,
        num_batches: int = 64,
        seed: int = 2024,
        start: int = 0,
        io_delay_s: float = 0.0,
    ) -> None:
        if batch_size <= 0:
            raise IngestError(f"synthetic batch size must be positive, got {batch_size}")
        if num_batches < 0:
            raise IngestError(f"synthetic batch count must be >= 0, got {num_batches}")
        self.schema = schema
        self.batch_size = batch_size
        self.num_batches = num_batches
        self.seed = seed
        self.start = start
        self.io_delay_s = io_delay_s
        self._dataset = SyntheticCriteoDataset(schema, seed=seed)

    def batch(self, index: int) -> Batch:
        return self._dataset.batch(self.batch_size, index=self.start + index)

    def __len__(self) -> int:
        return self.num_batches

    def delay_s(self, index: int) -> float:
        return self.io_delay_s

    @property
    def rows_per_batch(self) -> int | None:
        return self.batch_size

    def describe(self) -> str:
        return (
            f"synthetic://{self.schema.name}?batch={self.batch_size}"
            f"&batches={self.num_batches}&seed={self.seed}"
        )

    @classmethod
    def from_spec(cls, spec: SourceSpec) -> "SyntheticSource":
        spec.require_known(
            {"batch", "batches", "seed", "start", "io_delay_ms", "nan_rate", "weight"}
        )
        bases = {"kaggle": KAGGLE_SCHEMA, "terabyte": TERABYTE_SCHEMA, "": KAGGLE_SCHEMA}
        base = bases.get(spec.target.strip("/").lower())
        if base is None:
            raise IngestError(
                f"bad source spec {spec.raw!r}: unknown synthetic base "
                f"{spec.target!r} (use kaggle or terabyte)"
            )
        nan_rate = spec.float_param("nan_rate")
        schema = base if nan_rate is None else CriteoSchema(
            name=base.name,
            num_dense=base.num_dense,
            num_sparse=base.num_sparse,
            total_hash_size=base.total_hash_size,
            avg_list_length=base.avg_list_length,
            nan_rate=nan_rate,
            id_skew=base.id_skew,
        )
        return cls(
            schema,
            batch_size=spec.int_param("batch", 2048),
            num_batches=spec.int_param("batches", 64),
            seed=spec.int_param("seed", 2024),
            start=spec.int_param("start", 0),
            io_delay_s=spec.float_param("io_delay_ms", 0.0) / 1000.0,
        )


# ----------------------------------------------------------------------
# shared row-table core for file-backed sources
# ----------------------------------------------------------------------


class _RowTableSource(BatchSource):
    """File source materialized lazily into an in-memory sharded row table.

    Subclasses implement ``_load()`` returning ``(dense, sparse)`` where
    ``dense`` maps name -> float32 array over *all* rows and ``sparse``
    maps name -> (offsets, values) CSR over all rows. Sharding (strided
    ``rows[k::n]``), batching, and hash-size inference are shared. The
    load is locked so concurrent pool workers parse the file once.
    """

    def __init__(self, path: str, *, batch_size: int, shard: tuple[int, int] = (0, 1)) -> None:
        if batch_size <= 0:
            raise IngestError(f"batch size must be positive, got {batch_size}")
        self.path = path
        self.batch_size = batch_size
        self.shard = shard
        self._lock = threading.Lock()
        self._table: tuple[dict, dict] | None = None
        self._num_batches: int | None = None

    # -- subclass hook ---------------------------------------------------

    def _load(self) -> tuple[dict[str, np.ndarray], dict[str, tuple[np.ndarray, np.ndarray]]]:
        raise NotImplementedError

    # -- lazy sharded table ----------------------------------------------

    def _ensure_table(self) -> tuple[dict, dict]:
        if self._table is not None:
            return self._table
        with self._lock:
            if self._table is None:
                dense, sparse = self._load()
                self._table = self._shard_table(dense, sparse)
            return self._table

    def _shard_table(self, dense: dict, sparse: dict) -> tuple[dict, dict]:
        rows = None
        for arr in dense.values():
            rows = len(arr)
            break
        if rows is None:
            for offs, _ in sparse.values():
                rows = len(offs) - 1
                break
        if rows is None:
            raise IngestError(f"{self.path}: no columns found")
        index, count = self.shard
        keep = np.arange(index, rows, count)
        if len(keep) < self.batch_size:
            raise IngestError(
                f"{self.path}: shard {index}/{count} owns {len(keep)} row(s), "
                f"fewer than one batch of {self.batch_size}"
            )
        sharded_dense = {name: np.ascontiguousarray(arr[keep]) for name, arr in dense.items()}
        sharded_sparse = {}
        for name, (offsets, values) in sparse.items():
            lengths = np.diff(offsets)[keep]
            new_offsets = np.zeros(len(keep) + 1, dtype=np.int64)
            np.cumsum(lengths, out=new_offsets[1:])
            starts = offsets[keep]
            nnz = int(new_offsets[-1])
            if nnz:
                gather = np.repeat(starts, lengths) + (
                    np.arange(nnz, dtype=np.int64) - np.repeat(new_offsets[:-1], lengths)
                )
                new_values = np.ascontiguousarray(values[gather])
            else:
                new_values = np.empty(0, dtype=np.int64)
            hash_size = max(_MIN_HASH_SIZE, int(values.max()) + 1 if len(values) else 0)
            sharded_sparse[name] = (new_offsets, new_values, hash_size)
        self._num_batches = len(keep) // self.batch_size
        return sharded_dense, sharded_sparse

    # -- BatchSource -----------------------------------------------------

    def batch(self, index: int) -> Batch:
        dense, sparse = self._ensure_table()
        if not 0 <= index < len(self):
            raise IndexError(f"batch index {index} out of range for {len(self)} batches")
        lo, hi = index * self.batch_size, (index + 1) * self.batch_size
        dense_cols = {
            name: DenseColumn(name, arr[lo:hi].copy()) for name, arr in dense.items()
        }
        sparse_cols = {}
        for name, (offsets, values, hash_size) in sparse.items():
            base = int(offsets[lo])
            col_offsets = (offsets[lo : hi + 1] - base).astype(np.int64)
            col_values = values[base : int(offsets[hi])].copy()
            sparse_cols[name] = SparseColumn(name, col_offsets, col_values, hash_size)
        return Batch(dense=dense_cols, sparse=sparse_cols)

    def __len__(self) -> int:
        if self._num_batches is None:
            self._ensure_table()
        return int(self._num_batches)  # type: ignore[arg-type]

    @property
    def rows_per_batch(self) -> int | None:
        return self.batch_size

    def describe(self) -> str:
        scheme = type(self).__name__.replace("Source", "").lower()
        index, count = self.shard
        shard = f"&shard={index}/{count}" if count > 1 else ""
        return f"{scheme}://{self.path}?batch={self.batch_size}{shard}"


def _split_names(names: Iterable[str], sparse_override: str | None) -> tuple[list, list]:
    """Classify column names into (dense, sparse) by prefix or override."""
    names = list(names)
    if sparse_override is not None:
        sparse_set = {n for n in sparse_override.split(";") if n}
        missing = sorted(sparse_set - set(names))
        if missing:
            raise IngestError(f"sparse column(s) {', '.join(missing)} not in file header")
    else:
        sparse_set = {n for n in names if n.startswith("sparse")}
    dense = [n for n in names if n not in sparse_set]
    sparse = [n for n in names if n in sparse_set]
    return dense, sparse


class CsvSource(_RowTableSource):
    """``csv://`` — header row names the columns; sparse cells hold
    space-separated ids, dense cells floats (empty cell = NaN)."""

    def __init__(
        self,
        path: str,
        *,
        batch_size: int,
        shard: tuple[int, int] = (0, 1),
        sparse_columns: str | None = None,
        delimiter: str = ",",
    ) -> None:
        super().__init__(path, batch_size=batch_size, shard=shard)
        self.sparse_columns = sparse_columns
        self.delimiter = delimiter

    def _load(self):
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                header_line = fh.readline()
                if not header_line.strip():
                    raise IngestError(f"{self.path}: empty CSV (no header)")
                names = [n.strip() for n in header_line.rstrip("\n").split(self.delimiter)]
                dense_names, sparse_names = _split_names(names, self.sparse_columns)
                dense_raw: dict[str, list[float]] = {n: [] for n in dense_names}
                sparse_raw: dict[str, tuple[list[int], list[int]]] = {
                    n: ([], [0]) for n in sparse_names
                }
                for lineno, line in enumerate(fh, start=2):
                    if not line.strip():
                        continue
                    cells = line.rstrip("\n").split(self.delimiter)
                    if len(cells) != len(names):
                        raise IngestError(
                            f"{self.path}:{lineno}: expected {len(names)} cells, "
                            f"got {len(cells)}"
                        )
                    for name, cell in zip(names, cells):
                        if name in dense_raw:
                            dense_raw[name].append(float(cell) if cell.strip() else np.nan)
                        else:
                            values, offsets = sparse_raw[name]
                            ids = [int(tok) for tok in cell.split()] if cell.strip() else []
                            values.extend(ids)
                            offsets.append(offsets[-1] + len(ids))
        except OSError as exc:
            raise IngestError(f"cannot read CSV source {self.path}: {exc}") from exc
        except ValueError as exc:
            if isinstance(exc, IngestError):
                raise
            raise IngestError(f"{self.path}: malformed cell ({exc})") from exc
        dense = {n: np.asarray(v, dtype=np.float32) for n, v in dense_raw.items()}
        sparse = {
            n: (np.asarray(offs, dtype=np.int64), np.asarray(vals, dtype=np.int64))
            for n, (vals, offs) in sparse_raw.items()
        }
        return dense, sparse

    @classmethod
    def from_spec(cls, spec: SourceSpec) -> "CsvSource":
        spec.require_known({"batch", "shard", "sparse", "delimiter", "weight"})
        return cls(
            spec.target,
            batch_size=spec.int_param("batch", 512),
            shard=spec.shard_param(),
            sparse_columns=spec.str_param("sparse"),
            delimiter=spec.str_param("delimiter", ","),
        )


class JsonlSource(_RowTableSource):
    """``jsonl://`` — schema header line, then one row object per line:
    ``{"d": [floats], "s": [[ids], ...]}`` (null dense = NaN)."""

    def _load(self):
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                header_line = fh.readline()
                if not header_line.strip():
                    raise IngestError(f"{self.path}: empty JSONL (no schema header)")
                header = json.loads(header_line)
                dense_names = list(header.get("dense", []))
                sparse_names = list(header.get("sparse", []))
                if not dense_names and not sparse_names:
                    raise IngestError(
                        f"{self.path}: schema header names no dense/sparse columns"
                    )
                dense_raw: list[list[float]] = []
                sparse_raw: dict[str, tuple[list[int], list[int]]] = {
                    n: ([], [0]) for n in sparse_names
                }
                for lineno, line in enumerate(fh, start=2):
                    if not line.strip():
                        continue
                    row = json.loads(line)
                    d = row.get("d", [])
                    s = row.get("s", [])
                    if len(d) != len(dense_names) or len(s) != len(sparse_names):
                        raise IngestError(
                            f"{self.path}:{lineno}: row shape mismatch vs schema header"
                        )
                    dense_raw.append([np.nan if v is None else float(v) for v in d])
                    for name, ids in zip(sparse_names, s):
                        values, offsets = sparse_raw[name]
                        values.extend(int(i) for i in ids)
                        offsets.append(offsets[-1] + len(ids))
        except OSError as exc:
            raise IngestError(f"cannot read JSONL source {self.path}: {exc}") from exc
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            if isinstance(exc, IngestError):
                raise
            raise IngestError(f"{self.path}: malformed JSONL ({exc})") from exc
        matrix = np.asarray(dense_raw, dtype=np.float32).reshape(len(dense_raw), len(dense_names))
        dense = {n: np.ascontiguousarray(matrix[:, j]) for j, n in enumerate(dense_names)}
        sparse = {
            n: (np.asarray(offs, dtype=np.int64), np.asarray(vals, dtype=np.int64))
            for n, (vals, offs) in sparse_raw.items()
        }
        return dense, sparse

    @classmethod
    def from_spec(cls, spec: SourceSpec) -> "JsonlSource":
        spec.require_known({"batch", "shard", "weight"})
        return cls(
            spec.target,
            batch_size=spec.int_param("batch", 512),
            shard=spec.shard_param(),
        )


# ----------------------------------------------------------------------
# replay:// — recorded batch logs with original timestamps
# ----------------------------------------------------------------------


class ReplaySource(BatchSource):
    """Recorded Criteo-schema batch log, replayed at its original pace.

    The log is JSONL: a ``{"type": "rap-replay", ...}`` header, then one
    record per batch with its recorded timestamp and column-major payload
    (see :func:`write_replay_log`). ``delay_s(i)`` is the recorded gap to
    the previous batch divided by ``speed``; ``pace=0`` keeps the data but
    drops the sleeps (useful in tests and benchmarks).
    """

    def __init__(self, path: str, *, speed: float = 1.0, pace: bool = True) -> None:
        if speed <= 0:
            raise IngestError(f"replay speed must be positive, got {speed}")
        self.path = path
        self.speed = speed
        self.pace = pace
        self._lock = threading.Lock()
        self._records: list[dict] | None = None
        self._delays: np.ndarray | None = None
        self._hash_sizes: dict[str, int] | None = None

    def _ensure_loaded(self) -> list[dict]:
        if self._records is not None:
            return self._records
        with self._lock:
            if self._records is None:
                self._load()
            return self._records  # type: ignore[return-value]

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                header_line = fh.readline()
                if not header_line.strip():
                    raise IngestError(f"{self.path}: empty replay log")
                header = json.loads(header_line)
                if header.get("type") != "rap-replay":
                    raise IngestError(
                        f"{self.path}: not a replay log (header type "
                        f"{header.get('type')!r}, expected 'rap-replay')"
                    )
                records = [json.loads(line) for line in fh if line.strip()]
        except OSError as exc:
            raise IngestError(f"cannot read replay source {self.path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise IngestError(f"{self.path}: malformed replay log ({exc})") from exc
        if not records:
            raise IngestError(f"{self.path}: replay log holds no batches")
        ts = np.asarray([float(r["ts"]) for r in records])
        if np.any(np.diff(ts) < 0):
            raise IngestError(f"{self.path}: replay timestamps must be non-decreasing")
        delays = np.concatenate([[0.0], np.diff(ts)]) / self.speed
        hash_sizes: dict[str, int] = {}
        for record in records:
            for name, rows in record.get("sparse", {}).items():
                peak = max((max(ids) for ids in rows if ids), default=-1)
                hash_sizes[name] = max(hash_sizes.get(name, _MIN_HASH_SIZE), peak + 1)
        self._records = records
        self._delays = delays
        self._hash_sizes = hash_sizes

    def batch(self, index: int) -> Batch:
        records = self._ensure_loaded()
        if not 0 <= index < len(records):
            raise IndexError(f"batch index {index} out of range for {len(records)} batches")
        record = records[index]
        dense = {
            name: DenseColumn(
                name,
                np.asarray([np.nan if v is None else v for v in vals], dtype=np.float32),
            )
            for name, vals in record.get("dense", {}).items()
        }
        sparse = {}
        assert self._hash_sizes is not None
        for name, rows in record.get("sparse", {}).items():
            offsets = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum([len(ids) for ids in rows], out=offsets[1:])
            values = np.asarray(
                [i for ids in rows for i in ids] or [], dtype=np.int64
            )
            sparse[name] = SparseColumn(name, offsets, values, self._hash_sizes[name])
        return Batch(dense=dense, sparse=sparse)

    def __len__(self) -> int:
        return len(self._ensure_loaded())

    def delay_s(self, index: int) -> float:
        if not self.pace:
            return 0.0
        self._ensure_loaded()
        assert self._delays is not None
        if not 0 <= index < len(self._delays):
            return 0.0
        return float(self._delays[index])

    @property
    def rows_per_batch(self) -> int | None:
        records = self._ensure_loaded()
        sizes = set()
        for record in records:
            for vals in record.get("dense", {}).values():
                sizes.add(len(vals))
                break
            else:
                for rows in record.get("sparse", {}).values():
                    sizes.add(len(rows))
                    break
        return sizes.pop() if len(sizes) == 1 else None

    def describe(self) -> str:
        return f"replay://{self.path}?speed={self.speed}&pace={int(self.pace)}"

    @classmethod
    def from_spec(cls, spec: SourceSpec) -> "ReplaySource":
        spec.require_known({"speed", "pace", "weight"})
        return cls(
            spec.target,
            speed=spec.float_param("speed", 1.0),
            pace=spec.bool_param("pace", True),
        )


# ----------------------------------------------------------------------
# combinators
# ----------------------------------------------------------------------


class MixedSource(BatchSource):
    """Weighted deterministic sampling across member sources.

    Batch ``i`` comes from the member a seeded draw assigns to position
    ``i``; the member-side batch index is that member's occurrence count
    so far (mod its length, so short members wrap). Assignment is
    precomputed, which keeps the source seekable and pure in the index.
    """

    def __init__(
        self,
        members: Sequence[BatchSource],
        weights: Sequence[float] | None = None,
        *,
        num_batches: int | None = None,
        seed: int = 0,
    ) -> None:
        if not members:
            raise IngestError("MixedSource needs at least one member source")
        self.members = list(members)
        if weights is None:
            weights = [1.0] * len(self.members)
        if len(weights) != len(self.members):
            raise IngestError(
                f"got {len(weights)} weights for {len(self.members)} sources"
            )
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise IngestError(f"weights must be non-negative and sum > 0, got {weights}")
        self.weights = [float(w) for w in weights]
        self.seed = seed
        member_lengths = [len(m) for m in self.members]
        if num_batches is None:
            num_batches = sum(member_lengths)
        self.num_batches = num_batches
        probs = np.asarray(self.weights) / sum(self.weights)
        rng = np.random.default_rng(seed)
        assignment = rng.choice(len(self.members), size=num_batches, p=probs)
        occurrence = np.zeros(num_batches, dtype=np.int64)
        counts = [0] * len(self.members)
        for i, member in enumerate(assignment):
            occurrence[i] = counts[member]
            counts[member] += 1
        self._assignment = assignment
        self._occurrence = occurrence
        self._member_lengths = member_lengths

    def _resolve(self, index: int) -> tuple[BatchSource, int]:
        if not 0 <= index < self.num_batches:
            raise IndexError(
                f"batch index {index} out of range for {self.num_batches} batches"
            )
        member = int(self._assignment[index])
        length = self._member_lengths[member]
        if length <= 0:
            raise IngestError(
                f"member {self.members[member].describe()} has no batches to sample"
            )
        return self.members[member], int(self._occurrence[index]) % length

    def batch(self, index: int) -> Batch:
        member, member_index = self._resolve(index)
        return member.batch(member_index)

    def delay_s(self, index: int) -> float:
        member, member_index = self._resolve(index)
        return member.delay_s(member_index)

    def __len__(self) -> int:
        return self.num_batches

    @property
    def rows_per_batch(self) -> int | None:
        sizes = {m.rows_per_batch for m in self.members}
        return sizes.pop() if len(sizes) == 1 else None

    def describe(self) -> str:
        parts = ", ".join(
            f"{m.describe()} w={w:g}" for m, w in zip(self.members, self.weights)
        )
        return f"mixed[{parts}]"


class PacedSource(BatchSource):
    """Overlay an explicit per-batch arrival-delay schedule on any source.

    This is how a forge arrival curve drives a real source: the curve's
    intensity becomes a delay schedule
    (:meth:`repro.forge.scenario.ArrivalCurve.delay_schedule`) and the
    wrapped source's own pacing is replaced by it. Indices past the end of
    the schedule reuse its last delay.
    """

    def __init__(self, inner: BatchSource, delays: Sequence[float]) -> None:
        if not len(delays):
            raise IngestError("PacedSource needs a non-empty delay schedule")
        if any(d < 0 for d in delays):
            raise IngestError("arrival delays must be non-negative")
        self.inner = inner
        self.delays = tuple(float(d) for d in delays)

    def batch(self, index: int) -> Batch:
        return self.inner.batch(index)

    def __len__(self) -> int:
        return len(self.inner)

    def delay_s(self, index: int) -> float:
        if index < 0:
            return 0.0
        return self.delays[min(index, len(self.delays) - 1)]

    @property
    def rows_per_batch(self) -> int | None:
        return self.inner.rows_per_batch

    def describe(self) -> str:
        return f"paced({self.inner.describe()})"


# ----------------------------------------------------------------------
# resolver
# ----------------------------------------------------------------------

_SCHEMES: dict[str, Callable[[SourceSpec], BatchSource]] = {
    "synthetic": SyntheticSource.from_spec,
    "csv": CsvSource.from_spec,
    "jsonl": JsonlSource.from_spec,
    "replay": ReplaySource.from_spec,
}


def source(spec: str | SourceSpec) -> BatchSource:
    """Resolve one spec string into its batch source."""
    parsed = parse_spec(spec) if isinstance(spec, str) else spec
    factory = _SCHEMES.get(parsed.scheme)
    if factory is None:
        raise IngestError(
            f"unknown source scheme {parsed.scheme!r} in {parsed.raw!r} "
            f"(known: {', '.join(sorted(_SCHEMES))})"
        )
    return factory(parsed)


def build_source(specs: str, *, seed: int = 0) -> BatchSource:
    """Resolve a CLI-style ``SPEC[,SPEC...]`` list; several specs become a
    weighted :class:`MixedSource` (per-spec ``weight=`` params, default 1)."""
    pieces = split_specs(specs)
    parsed = [parse_spec(p) for p in pieces]
    sources = [source(p) for p in parsed]
    if len(sources) == 1:
        return sources[0]
    weights = [p.float_param("weight", 1.0) for p in parsed]
    return MixedSource(sources, weights, seed=seed)


# ----------------------------------------------------------------------
# writers (round-trip partners of the file sources; used by tests and CI)
# ----------------------------------------------------------------------


def _ordered_columns(batch: Batch) -> tuple[list[str], list[str]]:
    return list(batch.dense), list(batch.sparse)


def write_csv(path: str, batches: Iterable[Batch], *, delimiter: str = ",") -> int:
    """Write batches as one CSV readable by :class:`CsvSource`; returns rows."""
    rows_written = 0
    header: list[str] | None = None
    with open(path, "w", encoding="utf-8") as fh:
        for batch in batches:
            dense_names, sparse_names = _ordered_columns(batch)
            if header is None:
                header = dense_names + sparse_names
                fh.write(delimiter.join(header) + "\n")
            elif header != dense_names + sparse_names:
                raise IngestError("all batches written to one CSV must share columns")
            for row in range(batch.size):
                cells = []
                for name in dense_names:
                    v = float(batch.dense[name].values[row])
                    cells.append("" if np.isnan(v) else repr(v))
                for name in sparse_names:
                    cells.append(" ".join(str(int(i)) for i in batch.sparse[name].row(row)))
                fh.write(delimiter.join(cells) + "\n")
                rows_written += 1
    if header is None:
        raise IngestError("write_csv needs at least one batch")
    return rows_written


def write_jsonl(path: str, batches: Iterable[Batch]) -> int:
    """Write batches as schema-headed JSONL readable by :class:`JsonlSource`."""
    rows_written = 0
    header: tuple[list[str], list[str]] | None = None
    with open(path, "w", encoding="utf-8") as fh:
        for batch in batches:
            names = _ordered_columns(batch)
            if header is None:
                header = names
                fh.write(json.dumps({"dense": names[0], "sparse": names[1]}) + "\n")
            elif header != names:
                raise IngestError("all batches written to one JSONL must share columns")
            for row in range(batch.size):
                d = [
                    None if np.isnan(v := float(batch.dense[n].values[row])) else v
                    for n in names[0]
                ]
                s = [[int(i) for i in batch.sparse[n].row(row)] for n in names[1]]
                fh.write(json.dumps({"d": d, "s": s}) + "\n")
                rows_written += 1
    if header is None:
        raise IngestError("write_jsonl needs at least one batch")
    return rows_written


def write_replay_log(
    path: str, batches: Iterable[Batch], timestamps: Sequence[float]
) -> int:
    """Record batches with arrival timestamps, readable by :class:`ReplaySource`."""
    batches = list(batches)
    if len(batches) != len(timestamps):
        raise IngestError(
            f"got {len(batches)} batches but {len(timestamps)} timestamps"
        )
    if not batches:
        raise IngestError("write_replay_log needs at least one batch")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "rap-replay", "version": 1}) + "\n")
        for ts, batch in zip(timestamps, batches):
            record = {
                "ts": float(ts),
                "dense": {
                    name: [
                        None if np.isnan(v) else float(v)
                        for v in col.values.astype(np.float64)
                    ]
                    for name, col in batch.dense.items()
                },
                "sparse": {
                    name: [[int(i) for i in col.row(r)] for r in range(col.num_rows)]
                    for name, col in batch.sparse.items()
                },
            }
            fh.write(json.dumps(record) + "\n")
    return len(batches)
