"""The DLRM input-preprocessing operator library (Table 1 of the paper).

Every operator has two faces:

1. **A real data transform** (``apply``) over the numpy column containers
   in :mod:`repro.preprocessing.data` -- the functional behaviour a
   downstream user gets when executing a preprocessing graph.
2. **A cost descriptor** (``gpu_kernel`` / ``cpu_latency_us``) -- the
   resource-annotated kernel the GPU simulator executes, standing in for
   the paper's handwritten CUDA kernels.

The ground-truth GPU latency model is analytic (launch overhead plus a
compute term that saturates with warp occupancy plus an output-write term)
with a deterministic per-configuration perturbation, so the ML latency
predictor of §5.2 has real, non-trivially-learnable structure. Operator
families differ sharply in cost -- feature generation (Ngram) is an order
of magnitude heavier than normalization -- matching Fig. 5c's observation
that per-warp cost varies across operators.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Sequence

import numpy as np

from ..gpusim.kernel import KernelDesc, new_kernel
from ..gpusim.resources import GpuSpec, A100_SPEC, new_vector, warps_to_sm_fraction
from .data import (
    Batch,
    DenseColumn,
    SparseColumn,
    lengths_from_offsets,
    offsets_from_lengths,
    rowwise_concat_csr,
)

__all__ = [
    "PreprocessingOp",
    "FillNull",
    "Cast",
    "Logit",
    "BoxCox",
    "Onehot",
    "SigridHash",
    "FirstX",
    "Clamp",
    "Bucketize",
    "Ngram",
    "MapId",
    "OP_REGISTRY",
    "make_op",
    "concat_sparse_rows",
    "fillnull_kernel",
    "cast_kernel",
    "logit_kernel",
    "boxcox_kernel",
    "onehot_kernel",
    "bucketize_kernel",
    "sigridhash_kernel",
    "clamp_kernel",
    "mapid_kernel",
    "firstx_kernel",
    "ngram_kernel",
]

_ELEMS_PER_WARP = 128  # 32 lanes x 4 elements per lane
_MEM_SATURATION_FRACTION = 0.25  # fraction of warp slots needed to saturate DRAM


@functools.lru_cache(maxsize=65536)
def _config_noise(key: tuple) -> float:
    """Deterministic +/-8% perturbation keyed on the kernel configuration.

    Real kernel latency depends on cache behaviour, clock residency, and
    other micro-effects our analytic model omits; this stands in for them
    so that the latency predictor's +/-10% accuracy target (Table 5) is a
    real bar rather than a tautology.

    A planner prices each operator configuration once per graph set
    (:class:`repro.core.fusion.HorizontalFusionPass`), but fresh planners,
    baselines and drifted graph sets price the same (op, rows, list-length,
    params) configurations again, so the digest is memoized behind a bounded
    LRU cache; the key space of one process is small.
    """
    digest = hashlib.md5(repr(key).encode()).digest()
    unit = int.from_bytes(digest[:4], "little") / 0xFFFFFFFF
    return 0.92 + 0.16 * unit


def concat_sparse_rows(columns: Sequence[SparseColumn], name: str, hash_size: int) -> SparseColumn:
    """Row-wise concatenation of several ragged columns (vectorized).

    Row ``i`` of the result is the concatenation of row ``i`` of each input
    in order -- the layout Ngram consumes when it spans multiple sparse
    features.
    """
    if not columns:
        raise ValueError("need at least one column to concatenate")
    rows = columns[0].num_rows
    for col in columns:
        if col.num_rows != rows:
            raise ValueError("all columns must have the same row count")
    offsets, values = rowwise_concat_csr(
        [col.offsets for col in columns], [col.values for col in columns]
    )
    return SparseColumn(name, offsets, values, hash_size)


# ----------------------------------------------------------------------
# Vectorized operator kernels
#
# Each function is the numeric core of one Table-1 operator, written over
# bare numpy arrays. The naive ``_transform``s and the compiled engine
# (:mod:`repro.preprocessing.engine`) both call these functions, so the two
# execution paths are bit-identical by construction -- the engine merely
# applies them to concatenated column segments with pooled output buffers.
#
# Contract: ``values`` (and ``offsets``) arguments are never mutated unless
# they are also ``out``; when ``out`` is given the result is written there
# (same elementwise math as the allocate-and-return path) and ``out`` is
# returned. The ragged kernels (FirstX, Ngram) learn their values size only
# from the offsets pass, so they take an ``alloc(size, dtype)`` callable
# instead -- ``np.empty`` by default, an arena's ``take`` in the engine.
# ----------------------------------------------------------------------


def _finish(result: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return result
    np.copyto(out, result, casting="unsafe")
    return out


def fillnull_kernel(values: np.ndarray, fill_value: float, out: np.ndarray | None = None) -> np.ndarray:
    """Replace NaNs with ``fill_value``; output is float32."""
    if out is None:
        return np.nan_to_num(values.astype(np.float32), nan=fill_value)
    np.copyto(out, values, casting="unsafe")
    return np.nan_to_num(out, copy=False, nan=fill_value)


def cast_kernel(values: np.ndarray, dtype: np.dtype, out: np.ndarray | None = None) -> np.ndarray:
    """Cast to ``dtype``; NaNs are zeroed first for integer targets."""
    target = np.dtype(dtype)
    if np.issubdtype(target, np.integer):
        values = np.nan_to_num(values, nan=0.0)
    return _finish(values.astype(target) if out is None else values, out)


def logit_kernel(values: np.ndarray, eps: float, out: np.ndarray | None = None) -> np.ndarray:
    """``log(p / (1 - p))`` with inputs clipped into ``(eps, 1 - eps)``; float32 out."""
    p = np.clip(values.astype(np.float64), eps, 1.0 - eps)
    y = np.log(p / (1.0 - p))
    return _finish(y.astype(np.float32) if out is None else y, out)


def boxcox_kernel(values: np.ndarray, lmbda: float, out: np.ndarray | None = None) -> np.ndarray:
    """Box-Cox power transform; float32 out."""
    x = np.maximum(values.astype(np.float64), 1e-6)
    if abs(lmbda) < 1e-12:
        y = np.log(x)
    else:
        y = (np.power(x, lmbda) - 1.0) / lmbda
    return _finish(y.astype(np.float32) if out is None else y, out)


def onehot_kernel(values: np.ndarray, num_classes: int, out: np.ndarray | None = None) -> np.ndarray:
    """Hot-bucket index per row (the compacted one-hot encoding); int64 out."""
    x = np.nan_to_num(values.astype(np.float64), nan=0.0)
    x = np.clip(x, 0.0, 1.0)
    idx = np.minimum((x * num_classes).astype(np.int64), num_classes - 1)
    return _finish(idx, out)


def bucketize_kernel(
    values: np.ndarray, borders: tuple[float, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """Bucket index per element given sorted borders; int64 out."""
    x = np.nan_to_num(values.astype(np.float64), nan=0.0)
    idx = np.searchsorted(np.asarray(borders), x, side="right").astype(np.int64)
    return _finish(idx, out)


def _as_uint64(values: np.ndarray) -> np.ndarray:
    """uint64 form of integer ids: 8-byte integers alias, everything else converts.

    Both routes wrap negative ids modulo 2**64 exactly like ``astype``. Only
    8-byte integer dtypes may be reinterpreted: a ``view`` of an even-length
    int32 array would succeed and silently halve it.
    """
    if values.dtype == np.uint64:
        return values
    if values.dtype.kind == "i" and values.dtype.itemsize == 8:
        try:
            return values.view(np.uint64)
        except ValueError:  # non-contiguous exotic layout: fall back to a copy
            pass
    return values.astype(np.uint64)


def _mod_inplace(h: np.ndarray, modulus: int, scratch: np.ndarray | None = None) -> None:
    """``h %= modulus`` in place for a uint64 array, as ``h -= (h // m) * m``.

    numpy's uint64 ``remainder`` by a scalar costs about four times its
    ``floor_divide``, so divide-multiply-subtract is the cheaper exact form
    for every ``0 < modulus < 2**64``. ``scratch`` (same shape, uint64)
    holds the quotient when given.
    """
    m = np.uint64(modulus)
    q = np.floor_divide(h, m, out=scratch)
    q *= m
    h -= q


#: Elements per block of a multi-pass integer kernel: a block of the output
#: and one of scratch (2 x 512 KiB of uint64) stay in a 2 MiB L2 cache
#: across every pass, where a pass over a whole fused column streams from
#: memory.
_BLOCK = 1 << 16


def _blockwise(
    values: np.ndarray,
    out: np.ndarray | None,
    passes: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
) -> np.ndarray:
    """Run ``passes(v, h, scratch)`` block by block; int64 out.

    ``v`` is a block of ``values`` as uint64, ``h`` the same block of
    ``out`` (which may be ``values`` itself) and ``scratch`` a uint64 block
    of the same length.
    """
    if out is None:
        out = np.empty(values.shape[0], dtype=np.int64)
    v, h = _as_uint64(values), _as_uint64(out)
    size = h.shape[0]
    scratch = np.empty(min(size, _BLOCK), dtype=np.uint64)
    for lo in range(0, size, _BLOCK):
        hi = min(lo + _BLOCK, size)
        passes(v[lo:hi], h[lo:hi], scratch[: hi - lo])
    return out


def sigridhash_kernel(
    values: np.ndarray, salt: int, max_value: int, out: np.ndarray | None = None
) -> np.ndarray:
    """SigridHash sparse ids into ``[0, max_value)``; int64 out.

    The mix is a splitmix64 finalizer. Every pass writes the output block
    in place, and the shifts and the modulus share one scratch block, so
    the kernel allocates one block of scratch. ``out`` may be ``values``.
    """

    def passes(v: np.ndarray, h: np.ndarray, scratch: np.ndarray) -> None:
        np.multiply(v, np.uint64(0x9E3779B97F4A7C15), out=h)
        h += np.uint64(salt)
        h ^= np.right_shift(h, np.uint64(29), out=scratch)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= np.right_shift(h, np.uint64(32), out=scratch)
        _mod_inplace(h, max_value, scratch)

    return _blockwise(values, out, passes)


def clamp_kernel(
    values: np.ndarray, lower: int, upper: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Clamp sparse ids into ``[lower, upper]``; int64 out."""
    if lower > upper:
        raise ValueError("Clamp lower bound exceeds upper bound")
    return np.clip(values, lower, upper, out=out)


def mapid_kernel(
    values: np.ndarray,
    multiplier: int,
    offset: int,
    table_size: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Affine id remap ``(v * multiplier + offset) % table_size``; int64 out."""

    def passes(v: np.ndarray, h: np.ndarray, scratch: np.ndarray) -> None:
        np.multiply(v, np.uint64(multiplier), out=h)
        h += np.uint64(offset)
        _mod_inplace(h, table_size, scratch)

    return _blockwise(values, out, passes)


def firstx_kernel(
    offsets: np.ndarray,
    values: np.ndarray,
    x: int,
    out_offsets: np.ndarray | None = None,
    alloc: Callable[[int, np.dtype], np.ndarray] = np.empty,
) -> tuple[np.ndarray, np.ndarray]:
    """Truncate every row's list to its first ``x`` ids.

    Returns the truncated column's ``(offsets, values)``. ``out_offsets``
    must hold ``rows + 1`` entries; the values output comes from
    ``alloc(truncated_nnz, dtype)``.
    """
    if x <= 0:
        raise ValueError("FirstX needs x >= 1")
    lengths = lengths_from_offsets(offsets)
    long_rows = np.flatnonzero(lengths > x)
    out_offsets = offsets_from_lengths(np.minimum(lengths, x, out=lengths), out=out_offsets)
    del lengths  # freed before the per-element temporaries: a lower peak
    kept = alloc(int(out_offsets[-1]), values.dtype)
    if long_rows.size == 0:
        kept[...] = values
    else:
        # Drop-range marking: only rows longer than x contribute a cut, so
        # the mask costs O(truncated rows) scatters plus one boolean
        # XOR-scan instead of a repeat() over every element. Cut starts
        # (row start + x) and cut ends (row end) are strictly increasing,
        # never collide, and never nest, so the parity scan is exactly the
        # inside-a-cut indicator.
        flips = np.zeros(int(offsets[-1]) + 1, dtype=bool)
        flips[offsets[:-1][long_rows] + x] = True
        flips[offsets[1:][long_rows]] = True
        drop = np.logical_xor.accumulate(flips[:-1])
        keep = np.logical_not(drop, out=drop)
        # Compact block by block into the output: the only temporary is
        # one block's worth of kept ids, not a second copy of the column.
        pos = 0
        for lo in range(0, keep.shape[0], _BLOCK):
            part = values[lo : lo + _BLOCK][keep[lo : lo + _BLOCK]]
            kept[pos : pos + part.shape[0]] = part
            pos += part.shape[0]
    return out_offsets, kept


def ngram_kernel(
    offsets: np.ndarray,
    values: np.ndarray,
    n: int,
    out_hash_size: int,
    out_offsets: np.ndarray | None = None,
    alloc: Callable[[int, np.dtype], np.ndarray] = np.empty,
) -> tuple[np.ndarray, np.ndarray]:
    """Hash every window of ``n`` consecutive ids within a row to a new id.

    Operates on the already row-wise-concatenated column (see
    :func:`repro.preprocessing.data.rowwise_concat_csr`); windows never span
    row boundaries. ``out_offsets`` must hold ``rows + 1`` entries; the int64
    values output comes from ``alloc(num_windows, dtype)``.
    """
    if n < 1:
        raise ValueError("Ngram needs n >= 1")
    out_lengths = lengths_from_offsets(offsets)
    out_lengths -= n - 1
    np.maximum(out_lengths, 0, out=out_lengths)
    out_offsets = offsets_from_lengths(out_lengths, out=out_offsets)
    total = int(out_offsets[-1])
    grams = alloc(total, np.dtype(np.int64))
    if total == 0:
        return out_offsets, grams
    # Row r's j-th window starts at element offsets[r] + j and lands at
    # out_offsets[r] + j, so window k starts at element k + shift[k]; only
    # these windows are hashed.
    shift = np.repeat(offsets[:-1] - out_offsets[:-1], out_lengths)
    del out_lengths  # freed before the per-block temporaries: a lower peak
    v = _as_uint64(values)
    out = _as_uint64(grams)
    prime = np.uint64(1_000_003)
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        # Horner's rule over the contiguous ids under this block's windows:
        # h[i] hashes the window starting at element first + i.
        first, last = lo + int(shift[lo]), hi + int(shift[hi - 1])
        h = v[first:last]
        for t in range(1, n):
            # The first step allocates h (v is never written); later ones reuse it.
            h = np.multiply(h, prime, out=None if t == 1 else h)
            h += v[first + t : last + t]
        # Window k of the block starts at h[k + shift[k] - first]; the
        # indices are in bounds, and mode="clip" lets take() skip buffering.
        index = np.arange(lo - first, hi - first)
        index += shift[lo:hi]
        block = out[lo:hi]
        np.take(h, index, out=block, mode="clip")
        _mod_inplace(block, out_hash_size)
    return out_offsets, grams


@dataclass
class PreprocessingOp:
    """Base class for all Table-1 operators.

    Subclasses define the transform (``apply``) plus class-level cost
    coefficients. Instances are immutable descriptors bound to their input
    column names; the same instance can be applied to any batch carrying
    those columns.
    """

    inputs: tuple[str, ...]
    output: str

    # -- classification (Table 1) --------------------------------------
    op_name: ClassVar[str] = "base"
    category: ClassVar[str] = "Other"  # DN / SN / FG / Other
    input_kind: ClassVar[str] = "dense"  # dense / sparse / multi_sparse
    output_kind: ClassVar[str] = "dense"
    predictor_family: ClassVar[str] = "1D Ops"  # Table 5 grouping

    # -- cost coefficients (per element, full-device rates) ------------
    gpu_elems_per_us: ClassVar[float] = 50_000.0
    cpu_elems_per_us: ClassVar[float] = 2.5
    bytes_per_elem: ClassVar[float] = 8.0
    dram_intensity: ClassVar[float] = 0.8

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        if not self.inputs:
            raise ValueError(f"{self.op_name} needs at least one input column")
        if self.input_kind != "multi_sparse" and len(self.inputs) != 1:
            raise ValueError(f"{self.op_name} takes exactly one input column")

    # ------------------------------------------------------------------
    # Functional behaviour
    # ------------------------------------------------------------------

    def apply(self, batch: Batch) -> DenseColumn | SparseColumn:
        """Apply the transform to ``batch`` and return the output column.

        The output is also inserted into the batch so chained operators can
        consume it.
        """
        columns = [batch.column(name) for name in self.inputs]
        result = self._transform(columns)
        batch.put(result)
        return result

    def _transform(self, columns: list) -> DenseColumn | SparseColumn:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def work_elements(self, rows: int, avg_list_length: float = 2.0) -> float:
        """Number of processed elements for a batch of ``rows`` samples."""
        if self.input_kind == "dense":
            return float(rows)
        if self.input_kind == "sparse":
            return rows * avg_list_length
        return rows * avg_list_length * len(self.inputs)

    def output_bytes(self, rows: int, avg_list_length: float = 2.0) -> float:
        return self._bytes_written(rows, self.work_elements(rows, avg_list_length))

    def _bytes_written(self, rows: int, work: float) -> float:
        """Output bytes given the op's ``work_elements`` at ``rows``."""
        return work * self.bytes_per_elem

    def _params_key(self) -> tuple:
        """Operator parameters that influence latency (noise + predictor)."""
        return ()

    def numeric_key(self) -> tuple:
        """Parameters that influence the *numeric output* of the operator.

        Two same-type ops with equal ``numeric_key()`` can execute as one
        vectorized kernel call over their concatenated inputs (the engine's
        fused execution). This can differ from :meth:`_params_key`, which
        only has to capture what moves *latency* (e.g. Bucketize's cost
        depends on the border count, but its output depends on the actual
        border values).
        """
        return self._params_key()

    def gpu_kernel(
        self,
        rows: int,
        spec: GpuSpec = A100_SPEC,
        avg_list_length: float = 2.0,
        name: str | None = None,
    ) -> KernelDesc:
        """Lower this operator to a resource-annotated simulated kernel.

        ``work_elements`` is computed once and feeds the warp count and the
        written bytes, the latter in the same float operations as
        :meth:`output_bytes`.
        """
        work = self.work_elements(rows, avg_list_length)
        warps = max(1, math.ceil(work / _ELEMS_PER_WARP))
        slots = spec.total_warp_slots
        launch_us = spec.kernel_launch_us
        sm_frac = warps_to_sm_fraction(warps, spec)
        occupancy = max(warps / slots, 1e-4)
        compute_us = work / (self.gpu_elems_per_us * min(1.0, occupancy))
        write_us = self._bytes_written(rows, work) / spec.dram_bytes_per_us
        body_us = max(compute_us, write_us)
        params = self._params_key()
        noise = _config_noise((self.op_name, rows, round(avg_list_length, 3)) + params)
        dram_frac = self.dram_intensity * min(1.0, warps / (slots * _MEM_SATURATION_FRACTION))
        return new_kernel(
            name or f"{self.op_name}:{self.output}",
            launch_us + body_us * noise,
            new_vector(sm_frac, dram_frac),
            warps,
            self.op_name,
            launch_us,
            slots,
            {"rows": rows, "avg_list_length": avg_list_length, "params": params, "members": 1},
        )

    def cpu_latency_us(self, rows: int, avg_list_length: float = 2.0) -> float:
        """Single-worker CPU latency (the TorchArrow substrate's currency)."""
        work = self.work_elements(rows, avg_list_length)
        return work / self.cpu_elems_per_us


# ----------------------------------------------------------------------
# Dense normalization (DN)
# ----------------------------------------------------------------------


@dataclass
class Logit(PreprocessingOp):
    """Logit transform for dense normalization: ``log(p / (1 - p))``.

    Inputs are clipped into ``(eps, 1 - eps)`` first; the synthetic dense
    columns live in [0, 1] (plus NaNs that FillNull clears upstream).
    """

    eps: float = 1e-5

    op_name: ClassVar[str] = "Logit"
    category: ClassVar[str] = "DN"
    gpu_elems_per_us: ClassVar[float] = 13_000.0
    cpu_elems_per_us: ClassVar[float] = 1.2
    dram_intensity: ClassVar[float] = 0.5

    def _params_key(self) -> tuple:
        return (self.eps,)

    def _transform(self, columns: list) -> DenseColumn:
        (col,) = columns
        return DenseColumn(self.output, logit_kernel(col.values, self.eps))


@dataclass
class BoxCox(PreprocessingOp):
    """Box-Cox power transform for dense normalization."""

    lmbda: float = 0.5

    op_name: ClassVar[str] = "BoxCox"
    category: ClassVar[str] = "DN"
    gpu_elems_per_us: ClassVar[float] = 15_000.0
    cpu_elems_per_us: ClassVar[float] = 0.9
    dram_intensity: ClassVar[float] = 0.4

    def _params_key(self) -> tuple:
        return (self.lmbda,)

    def _transform(self, columns: list) -> DenseColumn:
        (col,) = columns
        return DenseColumn(self.output, boxcox_kernel(col.values, self.lmbda))


@dataclass
class Onehot(PreprocessingOp):
    """One-hot encode a dense feature into ``num_classes`` buckets.

    The hot index is what downstream embedding/MLP consumption actually
    reads, so the output is materialized as a single-id sparse column of
    cardinality ``num_classes`` rather than an explicit binary matrix.
    """

    num_classes: int = 16

    op_name: ClassVar[str] = "Onehot"
    category: ClassVar[str] = "DN"
    output_kind: ClassVar[str] = "sparse"
    predictor_family: ClassVar[str] = "Onehot"
    gpu_elems_per_us: ClassVar[float] = 18_000.0
    cpu_elems_per_us: ClassVar[float] = 2.0
    dram_intensity: ClassVar[float] = 0.9

    def _params_key(self) -> tuple:
        return (self.num_classes,)

    def _bytes_written(self, rows: int, work: float) -> float:
        # The encoding writes one byte per class per row before compaction.
        return float(rows) * self.num_classes

    def _transform(self, columns: list) -> SparseColumn:
        (col,) = columns
        idx = onehot_kernel(col.values, self.num_classes)
        offsets = np.arange(len(idx) + 1, dtype=np.int64)
        return SparseColumn(self.output, offsets, idx, self.num_classes)


# ----------------------------------------------------------------------
# Sparse normalization (SN)
# ----------------------------------------------------------------------


@dataclass
class SigridHash(PreprocessingOp):
    """Hash sparse ids into a bounded id space (Meta's SigridHash)."""

    salt: int = 0x9E3779B9
    max_value: int = 1_000_000

    op_name: ClassVar[str] = "SigridHash"
    category: ClassVar[str] = "SN"
    input_kind: ClassVar[str] = "sparse"
    output_kind: ClassVar[str] = "sparse"
    gpu_elems_per_us: ClassVar[float] = 28_000.0
    cpu_elems_per_us: ClassVar[float] = 1.1
    dram_intensity: ClassVar[float] = 0.45

    def _params_key(self) -> tuple:
        return (self.salt, self.max_value)

    def _transform(self, columns: list) -> SparseColumn:
        (col,) = columns
        hashed = sigridhash_kernel(col.values, self.salt, self.max_value)
        return SparseColumn(self.output, col.offsets.copy(), hashed, self.max_value)


@dataclass
class FirstX(PreprocessingOp):
    """Keep only the first ``x`` ids of each row's list (list truncation)."""

    x: int = 3

    op_name: ClassVar[str] = "FirstX"
    category: ClassVar[str] = "SN"
    input_kind: ClassVar[str] = "sparse"
    output_kind: ClassVar[str] = "sparse"
    predictor_family: ClassVar[str] = "FirstX"
    gpu_elems_per_us: ClassVar[float] = 38_000.0
    cpu_elems_per_us: ClassVar[float] = 3.0
    dram_intensity: ClassVar[float] = 0.85

    def _params_key(self) -> tuple:
        return (self.x,)

    def work_elements(self, rows: int, avg_list_length: float = 2.0) -> float:
        return rows * min(float(self.x), avg_list_length)

    def _transform(self, columns: list) -> SparseColumn:
        (col,) = columns
        offsets, values = firstx_kernel(col.offsets, col.values, self.x)
        return SparseColumn(self.output, offsets, values, col.hash_size)


@dataclass
class Clamp(PreprocessingOp):
    """Clamp sparse ids into ``[lower, upper]``."""

    lower: int = 0
    upper: int = 1_000_000

    op_name: ClassVar[str] = "Clamp"
    category: ClassVar[str] = "SN"
    input_kind: ClassVar[str] = "sparse"
    output_kind: ClassVar[str] = "sparse"
    gpu_elems_per_us: ClassVar[float] = 34_000.0
    cpu_elems_per_us: ClassVar[float] = 2.8
    dram_intensity: ClassVar[float] = 0.8

    def _params_key(self) -> tuple:
        return (self.lower, self.upper)

    def _transform(self, columns: list) -> SparseColumn:
        (col,) = columns
        clipped = clamp_kernel(col.values, self.lower, self.upper)
        return SparseColumn(self.output, col.offsets.copy(), clipped, max(col.hash_size, self.upper + 1))


# ----------------------------------------------------------------------
# Feature generation (FG)
# ----------------------------------------------------------------------


@dataclass
class Bucketize(PreprocessingOp):
    """Shard a dense feature into buckets given sorted borders."""

    borders: tuple[float, ...] = (0.25, 0.5, 0.75)

    op_name: ClassVar[str] = "Bucketize"
    category: ClassVar[str] = "FG"
    output_kind: ClassVar[str] = "sparse"
    predictor_family: ClassVar[str] = "Bucketize"
    gpu_elems_per_us: ClassVar[float] = 20_000.0
    cpu_elems_per_us: ClassVar[float] = 1.0
    dram_intensity: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        self.borders = tuple(self.borders)
        if list(self.borders) != sorted(self.borders):
            raise ValueError("Bucketize borders must be sorted ascending")

    def _params_key(self) -> tuple:
        return (len(self.borders),)

    def numeric_key(self) -> tuple:
        # Cost only cares how many borders there are; the output depends on
        # the actual border values.
        return self.borders

    def work_elements(self, rows: int, avg_list_length: float = 2.0) -> float:
        # Binary search over the borders per element.
        return rows * max(1.0, np.log2(len(self.borders) + 1))

    def _transform(self, columns: list) -> SparseColumn:
        (col,) = columns
        idx = bucketize_kernel(col.values, self.borders)
        offsets = np.arange(len(idx) + 1, dtype=np.int64)
        return SparseColumn(self.output, offsets, idx, len(self.borders) + 1)


@dataclass
class Ngram(PreprocessingOp):
    """Compute an n-gram across one or more sparse features (heavyweight FG).

    The per-row lists of all input features are concatenated in order and
    every window of ``n`` consecutive ids is hashed into a new id. This is
    the paper's case-study operator: its cost grows with the number of
    input features until the kernel saturates the device (Fig. 1b).
    """

    n: int = 3
    out_hash_size: int = 1_000_000

    op_name: ClassVar[str] = "Ngram"
    category: ClassVar[str] = "FG"
    input_kind: ClassVar[str] = "multi_sparse"
    output_kind: ClassVar[str] = "sparse"
    predictor_family: ClassVar[str] = "Ngram"
    gpu_elems_per_us: ClassVar[float] = 9_000.0
    cpu_elems_per_us: ClassVar[float] = 1.5
    dram_intensity: ClassVar[float] = 0.6

    def _params_key(self) -> tuple:
        return (self.n, len(self.inputs))

    def numeric_key(self) -> tuple:
        # The input count moves latency but not the window math; fused
        # members only need matching window size and output hash space.
        return (self.n, self.out_hash_size)

    def work_elements(self, rows: int, avg_list_length: float = 2.0) -> float:
        # Every element participates in up to n windows.
        return rows * avg_list_length * len(self.inputs) * self.n

    def _transform(self, columns: list) -> SparseColumn:
        if self.n < 1:
            raise ValueError("Ngram needs n >= 1")
        combined = concat_sparse_rows(columns, self.output + "_cat", self.out_hash_size)
        offsets, grams = ngram_kernel(combined.offsets, combined.values, self.n, self.out_hash_size)
        return SparseColumn(self.output, offsets, grams, self.out_hash_size)


@dataclass
class MapId(PreprocessingOp):
    """Map sparse ids to fixed values via an affine remap table."""

    multiplier: int = 2_654_435_761
    offset: int = 1
    table_size: int = 1_000_000

    op_name: ClassVar[str] = "MapId"
    category: ClassVar[str] = "FG"
    input_kind: ClassVar[str] = "sparse"
    output_kind: ClassVar[str] = "sparse"
    gpu_elems_per_us: ClassVar[float] = 22_000.0
    cpu_elems_per_us: ClassVar[float] = 1.5
    dram_intensity: ClassVar[float] = 0.95

    def _params_key(self) -> tuple:
        return (self.table_size,)

    def numeric_key(self) -> tuple:
        return (self.multiplier, self.offset, self.table_size)

    def _transform(self, columns: list) -> SparseColumn:
        (col,) = columns
        mapped = mapid_kernel(col.values, self.multiplier, self.offset, self.table_size)
        return SparseColumn(self.output, col.offsets.copy(), mapped, self.table_size)


# ----------------------------------------------------------------------
# Others
# ----------------------------------------------------------------------


@dataclass
class FillNull(PreprocessingOp):
    """Replace NaN entries of a dense column with a fixed value."""

    fill_value: float = 0.0

    op_name: ClassVar[str] = "FillNull"
    category: ClassVar[str] = "Other"
    gpu_elems_per_us: ClassVar[float] = 40_000.0
    cpu_elems_per_us: ClassVar[float] = 3.5
    dram_intensity: ClassVar[float] = 0.9

    def _params_key(self) -> tuple:
        return (self.fill_value,)

    def _transform(self, columns: list) -> DenseColumn:
        (col,) = columns
        return DenseColumn(self.output, fillnull_kernel(col.values, self.fill_value))


@dataclass
class Cast(PreprocessingOp):
    """Cast a dense column to a different numeric dtype."""

    dtype: str = "float32"

    op_name: ClassVar[str] = "Cast"
    category: ClassVar[str] = "Other"
    gpu_elems_per_us: ClassVar[float] = 44_000.0
    cpu_elems_per_us: ClassVar[float] = 4.0
    dram_intensity: ClassVar[float] = 0.9

    def _params_key(self) -> tuple:
        return (self.dtype,)

    def _transform(self, columns: list) -> DenseColumn:
        (col,) = columns
        return DenseColumn(self.output, cast_kernel(col.values, np.dtype(self.dtype)))


OP_REGISTRY: dict[str, type[PreprocessingOp]] = {
    cls.op_name: cls
    for cls in (
        Logit,
        BoxCox,
        Onehot,
        SigridHash,
        FirstX,
        Clamp,
        Bucketize,
        Ngram,
        MapId,
        FillNull,
        Cast,
    )
}


def make_op(op_name: str, inputs: Sequence[str], output: str, **params: Any) -> PreprocessingOp:
    """Instantiate a registered operator by its Table-1 name."""
    try:
        cls = OP_REGISTRY[op_name]
    except KeyError:
        raise KeyError(f"unknown preprocessing op {op_name!r}; known: {sorted(OP_REGISTRY)}") from None
    return cls(inputs=tuple(inputs), output=output, **params)
