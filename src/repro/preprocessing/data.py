"""Synthetic Criteo-schema data: columns, batches, and the generator.

The paper evaluates on Criteo Kaggle and Criteo Terabyte -- click-log
datasets with 13 continuous ("dense") features and 26 categorical
("sparse") features per sample. Those datasets matter to RAP only through
their schema and volume, so this module provides a deterministic synthetic
generator with the same shape: dense columns in [0, 1] with configurable
NaN rates (so ``FillNull`` has real work to do) and ragged sparse columns
in CSR-style ``(offsets, values)`` layout (the KeyedJaggedTensor layout
TorchRec uses) with configurable hash sizes, list lengths, and skew.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

__all__ = [
    "DenseColumn",
    "SparseColumn",
    "Batch",
    "CriteoSchema",
    "SyntheticCriteoDataset",
    "KAGGLE_SCHEMA",
    "TERABYTE_SCHEMA",
    "lengths_from_offsets",
    "offsets_from_lengths",
    "segment_positions",
    "concat_csr_blocks",
    "rowwise_concat_csr",
]


# ----------------------------------------------------------------------
# CSR segment helpers
#
# The compiled engine (repro.preprocessing.engine) and the vectorized
# operator kernels work on bare ``(offsets, values)`` arrays rather than
# column objects; these helpers are the shared vocabulary for that layout.
# ----------------------------------------------------------------------


def lengths_from_offsets(offsets: np.ndarray) -> np.ndarray:
    """Per-row list lengths of a CSR offsets array."""
    return np.diff(offsets)


def offsets_from_lengths(lengths: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """CSR offsets (``len(lengths) + 1`` entries) from per-row lengths."""
    if out is None:
        out = np.zeros(len(lengths) + 1, dtype=np.int64)
    else:
        if len(out) != len(lengths) + 1:
            raise ValueError(
                f"out buffer has {len(out)} entries, need len(lengths) + 1 = "
                f"{len(lengths) + 1}"
            )
        if not np.issubdtype(out.dtype, np.integer):
            raise ValueError(f"out buffer must be an integer dtype, got {out.dtype}")
        out[0] = 0
    np.cumsum(lengths, out=out[1:])
    return out


def segment_positions(offsets: np.ndarray, lengths: np.ndarray | None = None) -> np.ndarray:
    """Within-row index of every element of a CSR column.

    ``segment_positions([0, 2, 5])`` is ``[0, 1, 0, 1, 2]``: element ``k``'s
    distance from the start of its own row. This is the primitive behind
    vectorized list truncation and row-wise concatenation.
    """
    if lengths is None:
        lengths = lengths_from_offsets(offsets)
    nnz = int(offsets[-1])
    if nnz == 0:
        return np.empty(0, dtype=np.int64)
    return np.arange(nnz, dtype=np.int64) - np.repeat(offsets[:-1], lengths)


def concat_csr_blocks(
    offsets_list: Sequence[np.ndarray],
    values_list: Sequence[np.ndarray],
    out_offsets: np.ndarray | None = None,
    out_values: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack several CSR columns row-block after row-block.

    The result has ``sum(rows_i)`` rows: block ``i`` holds column ``i``'s rows
    unchanged. Horizontally-fused segment kernels execute once over the
    stacked column and split their output back into per-member blocks.
    """
    total_rows = sum(len(o) - 1 for o in offsets_list)
    total_nnz = sum(int(o[-1]) for o in offsets_list)
    values_dtype = np.result_type(*values_list) if values_list else np.dtype(np.int64)
    if out_offsets is None:
        out_offsets = np.empty(total_rows + 1, dtype=np.int64)
    else:
        if len(out_offsets) != total_rows + 1:
            raise ValueError(
                f"out_offsets has {len(out_offsets)} entries, need total_rows + 1 = "
                f"{total_rows + 1}"
            )
        if not np.issubdtype(out_offsets.dtype, np.integer):
            raise ValueError(f"out_offsets must be an integer dtype, got {out_offsets.dtype}")
    if out_values is None:
        out_values = np.empty(total_nnz, dtype=values_dtype)
    else:
        if len(out_values) != total_nnz:
            raise ValueError(
                f"out_values has {len(out_values)} entries, need total_nnz = {total_nnz}"
            )
        if not np.can_cast(values_dtype, out_values.dtype, casting="safe"):
            raise ValueError(
                f"out_values dtype {out_values.dtype} cannot safely hold "
                f"input values of dtype {values_dtype}"
            )
    out_offsets[0] = 0
    row, base = 0, 0
    for offs, vals in zip(offsets_list, values_list):
        rows_i, nnz_i = len(offs) - 1, int(offs[-1])
        np.add(offs[1:], base, out=out_offsets[row + 1 : row + rows_i + 1])
        out_values[base : base + nnz_i] = vals
        row += rows_i
        base += nnz_i
    return out_offsets, out_values


def rowwise_concat_csr(
    offsets_list: Sequence[np.ndarray],
    values_list: Sequence[np.ndarray],
    out_offsets: np.ndarray | None = None,
    out_values: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise concatenation of several CSR columns (vectorized).

    Row ``i`` of the result is row ``i`` of each input concatenated in
    order -- the layout ``Ngram`` consumes when it spans multiple sparse
    features. This is the array-level core of
    :func:`repro.preprocessing.ops.concat_sparse_rows`. ``out_offsets`` and
    ``out_values``, when given, must hold ``rows + 1`` and ``total_nnz``
    entries.
    """
    if not offsets_list:
        raise ValueError("need at least one column to concatenate")
    rows = len(offsets_list[0]) - 1
    for offs in offsets_list:
        if len(offs) - 1 != rows:
            raise ValueError("all columns must have the same row count")
    lengths = [lengths_from_offsets(o) for o in offsets_list]
    offsets = offsets_from_lengths(np.sum(lengths, axis=0), out=out_offsets)
    total_nnz = int(offsets[-1])
    if out_values is None:
        # Preserve the input values dtype (promoted across inputs), matching
        # concat_csr_blocks -- hardcoding int64 silently widened/narrowed.
        values = np.empty(total_nnz, dtype=np.result_type(*values_list))
    elif len(out_values) != total_nnz:
        raise ValueError(f"out_values has {len(out_values)} entries, need total_nnz = {total_nnz}")
    else:
        values = out_values
    # cursor[i] is where the next column's slice of row i lands, so input
    # element k of row i goes to (cursor[i] - offs[i]) + k.
    cursor = offsets[:-1].copy()
    for offs, vals, lens in zip(offsets_list, values_list, lengths):
        nnz = int(offs[-1])
        if nnz:
            targets = np.repeat(cursor - offs[:-1], lens)
            targets += np.arange(nnz)
            values[targets] = vals
        cursor += lens
    return offsets, values


@dataclass
class DenseColumn:
    """A continuous feature column: one float32 value per sample."""

    name: str
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if not (np.issubdtype(self.values.dtype, np.number) or self.values.dtype == np.bool_):
            raise ValueError(f"dense column {self.name!r} must be numeric, got {self.values.dtype}")
        if self.values.ndim != 1:
            raise ValueError(f"dense column {self.name!r} must be 1-D, got shape {self.values.shape}")

    def __len__(self) -> int:
        return len(self.values)

    def copy(self) -> "DenseColumn":
        return DenseColumn(self.name, self.values.copy())

    @classmethod
    def trusted(cls, name: str, values: np.ndarray) -> "DenseColumn":
        """Construct without validation (engine fast path: inputs are known-good)."""
        col = object.__new__(cls)
        col.name = name
        col.values = values
        return col


@dataclass
class SparseColumn:
    """A ragged categorical feature column in CSR layout.

    ``offsets`` has ``num_rows + 1`` entries; row ``i`` owns
    ``values[offsets[i]:offsets[i + 1]]``. ``hash_size`` is the cardinality
    of the id space (the embedding-table height the column feeds).
    """

    name: str
    offsets: np.ndarray
    values: np.ndarray
    hash_size: int

    def __post_init__(self) -> None:
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.offsets.ndim != 1 or len(self.offsets) < 1:
            raise ValueError(f"sparse column {self.name!r} offsets malformed")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.values):
            raise ValueError(
                f"sparse column {self.name!r}: offsets must start at 0 and end at len(values)"
            )
        lengths = np.diff(self.offsets)
        if np.any(lengths < 0):
            raise ValueError(f"sparse column {self.name!r}: offsets must be non-decreasing")
        if self.hash_size <= 0:
            raise ValueError(f"sparse column {self.name!r}: hash_size must be positive")
        # The CSR layout is immutable after construction: planning loops call
        # lengths()/nbytes() constantly, so both are cached, and the offsets
        # are frozen so no call site can silently invalidate the cache.
        if self.offsets.flags.writeable:
            self.offsets.flags.writeable = False
        lengths.flags.writeable = False
        self._lengths = lengths

    @property
    def num_rows(self) -> int:
        return len(self.offsets) - 1

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def avg_list_length(self) -> float:
        return self.nnz / self.num_rows if self.num_rows else 0.0

    def row(self, i: int) -> np.ndarray:
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    def lengths(self) -> np.ndarray:
        """Per-row list lengths (cached; the returned array is read-only)."""
        if self._lengths is None:
            lengths = np.diff(self.offsets)
            lengths.flags.writeable = False
            self._lengths = lengths
        return self._lengths

    def copy(self) -> "SparseColumn":
        return SparseColumn.trusted(
            self.name, self.offsets.copy(), self.values.copy(), self.hash_size
        )

    @classmethod
    def trusted(
        cls, name: str, offsets: np.ndarray, values: np.ndarray, hash_size: int
    ) -> "SparseColumn":
        """Construct without validation or freezing.

        The compiled engine builds output columns from arrays it already
        proved consistent (and whose buffers it may reuse next batch), so it
        skips the O(nnz) validation pass of the public constructor.
        """
        col = object.__new__(cls)
        col.name = name
        col.offsets = offsets
        col.values = values
        col.hash_size = hash_size
        col._lengths = None
        return col


@dataclass
class Batch:
    """One training batch: named dense and sparse columns of equal row count."""

    dense: dict[str, DenseColumn] = field(default_factory=dict)
    sparse: dict[str, SparseColumn] = field(default_factory=dict)

    def __post_init__(self) -> None:
        sizes = {len(c) for c in self.dense.values()} | {c.num_rows for c in self.sparse.values()}
        if len(sizes) > 1:
            raise ValueError(f"inconsistent batch row counts: {sorted(sizes)}")
        self._nbytes: int | None = None

    @property
    def size(self) -> int:
        for col in self.dense.values():
            return len(col)
        for col in self.sparse.values():
            return col.num_rows
        return 0

    def column(self, name: str) -> DenseColumn | SparseColumn:
        if name in self.dense:
            return self.dense[name]
        if name in self.sparse:
            return self.sparse[name]
        raise KeyError(f"batch has no column {name!r}")

    def put(self, column: DenseColumn | SparseColumn) -> None:
        if isinstance(column, DenseColumn):
            self.dense[column.name] = column
        else:
            self.sparse[column.name] = column
        self._nbytes = None

    def nbytes(self) -> int:
        """Total payload bytes (cached; ``put`` invalidates the cache)."""
        if self._nbytes is None:
            total = sum(c.values.nbytes for c in self.dense.values())
            total += sum(c.values.nbytes + c.offsets.nbytes for c in self.sparse.values())
            self._nbytes = total
        return self._nbytes

    def copy(self) -> "Batch":
        return Batch(
            dense={k: v.copy() for k, v in self.dense.items()},
            sparse={k: v.copy() for k, v in self.sparse.items()},
        )


@dataclass(frozen=True)
class CriteoSchema:
    """Shape of a Criteo-like dataset (Table 2 of the paper)."""

    name: str
    num_dense: int = 13
    num_sparse: int = 26
    total_hash_size: int = 33_700_000
    avg_list_length: float = 2.0
    nan_rate: float = 0.05
    id_skew: float = 1.05

    def dense_names(self) -> list[str]:
        return [f"dense_{i}" for i in range(self.num_dense)]

    def sparse_names(self) -> list[str]:
        return [f"sparse_{i}" for i in range(self.num_sparse)]

    def hash_sizes(self) -> list[int]:
        """Per-table cardinalities summing (approximately) to the total.

        Real Criteo tables are wildly skewed; we use a geometric-ish split
        where table ``i`` gets a share proportional to ``skew**-i``,
        normalized, with a floor of 1000 ids.
        """
        weights = np.power(self.id_skew, -np.arange(self.num_sparse, dtype=np.float64))
        weights /= weights.sum()
        sizes = np.maximum(1000, (weights * self.total_hash_size).astype(np.int64))
        return [int(s) for s in sizes]

    def scaled(self, dense_multiple: int, sparse_multiple: int, name: str | None = None) -> "CriteoSchema":
        """A wider variant of this schema (used by Plans 2 and 3, Table 3)."""
        return replace(
            self,
            name=name or f"{self.name}_x{sparse_multiple}",
            num_dense=self.num_dense * dense_multiple,
            num_sparse=self.num_sparse * sparse_multiple,
        )


KAGGLE_SCHEMA = CriteoSchema(name="criteo_kaggle", total_hash_size=33_700_000)
TERABYTE_SCHEMA = CriteoSchema(name="criteo_terabyte", total_hash_size=177_900_000)


class SyntheticCriteoDataset:
    """Deterministic generator of Criteo-schema batches.

    Dense values are uniform in [0, 1] with ``nan_rate`` of entries replaced
    by NaN (raw logs have missing fields). Sparse ids follow a truncated
    Zipf so hot ids dominate, matching the access skew that makes embedding
    lookup memory-bound. Batches are reproducible: batch ``i`` from two
    generators with the same seed is identical.
    """

    def __init__(self, schema: CriteoSchema, seed: int = 2024) -> None:
        self.schema = schema
        self.seed = seed
        self._hash_sizes = schema.hash_sizes()

    def batch(self, batch_size: int, index: int = 0) -> Batch:
        """Materialize batch ``index`` with ``batch_size`` rows."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        rng = np.random.default_rng((self.seed, index))
        dense = {}
        for name in self.schema.dense_names():
            vals = rng.random(batch_size, dtype=np.float32)
            if self.schema.nan_rate > 0:
                mask = rng.random(batch_size) < self.schema.nan_rate
                vals[mask] = np.nan
            dense[name] = DenseColumn(name, vals)
        sparse = {}
        for name, hash_size in zip(self.schema.sparse_names(), self._hash_sizes):
            lengths = rng.poisson(self.schema.avg_list_length, size=batch_size)
            lengths = np.maximum(lengths, 1)
            offsets = np.zeros(batch_size + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            nnz = int(offsets[-1])
            # Truncated Zipf-ish draw: square a uniform to concentrate mass
            # on low ids, then scale into the table's id space.
            u = rng.random(nnz)
            values = np.minimum((u**2 * hash_size).astype(np.int64), hash_size - 1)
            sparse[name] = SparseColumn(name, offsets, values, hash_size)
        return Batch(dense=dense, sparse=sparse)

    def batches(self, batch_size: int, count: int, start: int = 0):
        """Yield ``count`` consecutive batches starting at ``start``."""
        for i in range(start, start + count):
            yield self.batch(batch_size, index=i)
