"""Rewritten data-path kernels against frozen copies of their predecessors.

``ngram_kernel``, ``sigridhash_kernel``, ``mapid_kernel`` and
``rowwise_concat_csr`` were rewritten for speed (divide-multiply-subtract
modulus, Ngram hashing only the windows that fit, one repeat per column in
the row-wise concat). The functions below are verbatim copies of the
versions they replaced; the properties check the live ones match them bit
for bit over empty rows, all-empty columns, rows shorter than ``n``,
negative ids and moduli at the edges of the uint64 range. Each property
also shrinks the kernels' cache block to a few elements, so that inputs
of test size cross block boundaries.

The copies take int64 ids only: the old ``_as_uint64`` reinterpreted any
other dtype's bytes (see ``test_non_int64_ids_convert_not_alias``).
"""

import contextlib
from typing import Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.preprocessing import data, ops
from repro.preprocessing.data import lengths_from_offsets, offsets_from_lengths

# ----------------------------------------------------------------------
# Frozen reference copies (verbatim)
# ----------------------------------------------------------------------


def _as_uint64(values: np.ndarray) -> np.ndarray:
    """Zero-copy uint64 aliasing of an int64 array (wraps exactly like astype)."""
    if values.dtype == np.uint64:
        return values
    try:
        return values.view(np.uint64)
    except ValueError:  # non-contiguous exotic layout: fall back to a copy
        return values.astype(np.uint64)


def sigridhash_kernel(
    values: np.ndarray, salt: int, max_value: int, out: np.ndarray | None = None
) -> np.ndarray:
    """SigridHash sparse ids into ``[0, max_value)``; int64 out.

    The mix is a splitmix64 finalizer; every pass writes the (caller-owned
    or freshly allocated) output buffer in place, so the kernel performs no
    per-pass allocations beyond the two shift temporaries.
    """
    if out is None:
        out = np.empty(values.shape[0], dtype=np.int64)
    h = _as_uint64(out)
    np.multiply(_as_uint64(values), np.uint64(0x9E3779B97F4A7C15), out=h)
    h += np.uint64(salt)
    h ^= h >> np.uint64(29)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(32)
    np.remainder(h, np.uint64(max_value), out=h)
    return out


def mapid_kernel(
    values: np.ndarray,
    multiplier: int,
    offset: int,
    table_size: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Affine id remap ``(v * multiplier + offset) % table_size``; int64 out."""
    if out is None:
        out = np.empty(values.shape[0], dtype=np.int64)
    h = _as_uint64(out)
    np.multiply(_as_uint64(values), np.uint64(multiplier), out=h)
    h += np.uint64(offset)
    np.remainder(h, np.uint64(table_size), out=h)
    return out


def ngram_kernel(
    offsets: np.ndarray,
    values: np.ndarray,
    n: int,
    out_hash_size: int,
    out_offsets: np.ndarray | None = None,
    out_values: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Hash every window of ``n`` consecutive ids within a row to a new id.

    Operates on the already row-wise-concatenated column (see
    :func:`repro.preprocessing.data.rowwise_concat_csr`); windows never span
    row boundaries.
    """
    if n < 1:
        raise ValueError("Ngram needs n >= 1")
    lengths = lengths_from_offsets(offsets)
    out_lengths = np.maximum(lengths - n + 1, 0)
    out_offsets = offsets_from_lengths(out_lengths, out=out_offsets)
    nnz = int(offsets[-1])
    if nnz == 0 or int(out_offsets[-1]) == 0:
        empty = values[:0] if out_values is None else out_values[:0]
        return out_offsets, empty
    v = values.astype(np.uint64)
    prime = np.uint64(1_000_003)
    h = np.zeros(nnz, dtype=np.uint64)
    for t in range(n):
        shifted = np.zeros(nnz, dtype=np.uint64)
        shifted[: nnz - t] = v[t:]
        h = h * prime + shifted
    num_rows = len(offsets) - 1
    row_ids = np.repeat(np.arange(num_rows), lengths)
    tail_rows = np.full(nnz, -1, dtype=np.int64)
    tail_rows[: nnz - (n - 1)] = row_ids[n - 1 :] if n > 1 else row_ids
    valid = row_ids == tail_rows
    grams = (h[valid] % np.uint64(out_hash_size)).astype(np.int64)
    if out_values is None:
        return out_offsets, grams
    out_values[...] = grams
    return out_offsets, out_values


def rowwise_concat_csr(
    offsets_list: Sequence[np.ndarray], values_list: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise concatenation of several CSR columns (vectorized).

    Row ``i`` of the result is row ``i`` of each input concatenated in
    order -- the layout ``Ngram`` consumes when it spans multiple sparse
    features. This is the array-level core of
    :func:`repro.preprocessing.ops.concat_sparse_rows`.
    """
    if not offsets_list:
        raise ValueError("need at least one column to concatenate")
    rows = len(offsets_list[0]) - 1
    for offs in offsets_list:
        if len(offs) - 1 != rows:
            raise ValueError("all columns must have the same row count")
    lengths = [lengths_from_offsets(o) for o in offsets_list]
    total_lengths = np.sum(lengths, axis=0)
    offsets = offsets_from_lengths(total_lengths)
    # Preserve the input values dtype (promoted across inputs), matching
    # concat_csr_blocks -- hardcoding int64 silently widened/narrowed.
    values = np.empty(int(offsets[-1]), dtype=np.result_type(*values_list))
    prefix = np.zeros(rows, dtype=np.int64)
    for offs, vals, lens in zip(offsets_list, values_list, lengths):
        starts = offsets[:-1] + prefix
        nnz = int(offs[-1])
        if nnz:
            within = np.arange(nnz, dtype=np.int64) - np.repeat(offs[:-1], lens)
            targets = np.repeat(starts, lens) + within
            values[targets] = vals
        prefix = prefix + lens
    return offsets, values


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: Moduli at the edges: the trivial one, just past 32 bits, and one above
#: 2**63 whose quotient is only ever 0 or 1.
EDGE_MODULI = (1, 2**32 + 1, 2**63 + 5)

ids = st.integers(min_value=-(2**63), max_value=2**63 - 1)
moduli = st.one_of(st.sampled_from(EDGE_MODULI), st.integers(1, 2**64 - 1))
uint64s = st.integers(0, 2**64 - 1)


@st.composite
def csr_columns(draw, rows=None, max_len=7):
    """One int64 CSR column; rows may be empty, and so may the whole column."""
    if rows is None:
        rows = draw(st.integers(0, 12))
    empty = draw(st.booleans()) and draw(st.booleans())  # ~1 in 4 all-empty
    lengths = [0 if empty else draw(st.integers(0, max_len)) for _ in range(rows)]
    offsets = offsets_from_lengths(np.asarray(lengths, dtype=np.int64))
    values = np.asarray(draw(st.lists(ids, min_size=int(offsets[-1]), max_size=int(offsets[-1]))), dtype=np.int64)
    return offsets, values


@st.composite
def column_groups(draw):
    """One to four CSR columns sharing a row count."""
    rows = draw(st.integers(0, 10))
    return [draw(csr_columns(rows=rows)) for _ in range(draw(st.integers(1, 4)))]


#: Block sizes that split test-sized inputs, plus the production one.
block_sizes = st.sampled_from([1, 2, 3, 7, ops._BLOCK])


@contextlib.contextmanager
def blocks_of(size: int):
    saved = ops._BLOCK
    ops._BLOCK = size
    try:
        yield
    finally:
        ops._BLOCK = saved


def assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype, (got.dtype, want.dtype)
    np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(csr_columns(), st.integers(1, 5), moduli, block_sizes)
def test_ngram_matches_reference(column, n, modulus, block):
    offsets, values = column
    want_offsets, want_values = ngram_kernel(offsets, values, n, modulus)
    with blocks_of(block):
        got_offsets, got_values = ops.ngram_kernel(offsets, values, n, modulus)
    assert_same(got_offsets, want_offsets)
    assert_same(got_values, want_values)


@settings(max_examples=150, deadline=None)
@given(st.lists(ids, max_size=40), uint64s, moduli, block_sizes)
def test_sigridhash_matches_reference(raw, salt, modulus, block):
    values = np.asarray(raw, dtype=np.int64)
    want = sigridhash_kernel(values, salt, modulus)
    staged = values.copy()
    with blocks_of(block):
        assert_same(ops.sigridhash_kernel(values, salt, modulus), want)
        # The engine's fused step hashes its staged copy in place.
        assert ops.sigridhash_kernel(staged, salt, modulus, out=staged) is staged
    assert_same(staged, want)


@settings(max_examples=150, deadline=None)
@given(st.lists(ids, max_size=40), uint64s, uint64s, moduli, block_sizes)
def test_mapid_matches_reference(raw, multiplier, offset, modulus, block):
    values = np.asarray(raw, dtype=np.int64)
    want = mapid_kernel(values, multiplier, offset, modulus)
    staged = values.copy()
    with blocks_of(block):
        assert_same(ops.mapid_kernel(values, multiplier, offset, modulus), want)
        assert ops.mapid_kernel(staged, multiplier, offset, modulus, out=staged) is staged
    assert_same(staged, want)


@settings(max_examples=150, deadline=None)
@given(column_groups())
def test_rowwise_concat_matches_reference(columns):
    offsets_list = [c[0] for c in columns]
    values_list = [c[1] for c in columns]
    want_offsets, want_values = rowwise_concat_csr(offsets_list, values_list)
    got_offsets, got_values = data.rowwise_concat_csr(offsets_list, values_list)
    assert_same(got_offsets, want_offsets)
    assert_same(got_values, want_values)
    # Into caller-owned buffers, as the engine's Ngram step stacks members.
    out_offsets = np.full(want_offsets.shape, -1, dtype=np.int64)
    out_values = np.full(want_values.shape, -1, dtype=np.int64)
    got_offsets, got_values = data.rowwise_concat_csr(
        offsets_list, values_list, out_offsets=out_offsets, out_values=out_values
    )
    assert got_offsets is out_offsets and got_values is out_values
    assert_same(got_offsets, want_offsets)
    assert_same(got_values, want_values)


def test_all_empty_and_short_rows_yield_no_grams():
    offsets = np.array([0, 0, 2, 2, 4], dtype=np.int64)
    values = np.array([-1, 2, 3, -(2**63)], dtype=np.int64)
    for n in (3, 4, 5):
        got_offsets, got_values = ops.ngram_kernel(offsets, values, n, 2**63 + 5)
        np.testing.assert_array_equal(got_offsets, [0, 0, 0, 0, 0])
        assert got_values.shape == (0,) and got_values.dtype == np.int64
    empty = np.zeros(4, dtype=np.int64)
    got_offsets, got_values = ops.ngram_kernel(empty, values[:0], 1, 1)
    np.testing.assert_array_equal(got_offsets, [0, 0, 0, 0])
    assert got_values.shape == (0,)


def test_non_int64_ids_convert_not_alias():
    """int32 ids used to be reinterpreted as half as many uint64 words."""
    ids32 = np.array([1, 2], dtype=np.int32)
    ids64 = ids32.astype(np.int64)
    np.testing.assert_array_equal(ops.sigridhash_kernel(ids32, 1, 1000), [855, 602])
    np.testing.assert_array_equal(ops.sigridhash_kernel(ids64, 1, 1000), [855, 602])
    np.testing.assert_array_equal(ops.mapid_kernel(ids32, 3, 1, 10), [4, 7])
    np.testing.assert_array_equal(ops.mapid_kernel(ids64, 3, 1, 10), [4, 7])
    # Negative narrow ids wrap exactly like their int64 widening.
    neg32 = np.array([-1, -7, 5, -(2**31)], dtype=np.int32)
    np.testing.assert_array_equal(
        ops.sigridhash_kernel(neg32, 9, 2**32 + 1),
        sigridhash_kernel(neg32.astype(np.int64), 9, 2**32 + 1),
    )
    np.testing.assert_array_equal(
        ops.mapid_kernel(neg32, 2_654_435_761, 1, 2**63 + 5),
        mapid_kernel(neg32.astype(np.int64), 2_654_435_761, 1, 2**63 + 5),
    )
