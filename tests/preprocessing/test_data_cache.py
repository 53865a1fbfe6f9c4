"""Satellite coverage: CSR segment helpers, column caches, noise memo."""

import numpy as np
import pytest

from repro.preprocessing import (
    SparseColumn,
    concat_csr_blocks,
    lengths_from_offsets,
    make_op,
    offsets_from_lengths,
    rowwise_concat_csr,
)
from repro.preprocessing.ops import _config_noise


# ----------------------------------------------------------------------
# CSR segment helpers
# ----------------------------------------------------------------------


def test_offsets_lengths_roundtrip():
    lengths = np.array([3, 0, 2, 5, 0], dtype=np.int64)
    offsets = offsets_from_lengths(lengths)
    np.testing.assert_array_equal(offsets, [0, 3, 3, 5, 10, 10])
    np.testing.assert_array_equal(lengths_from_offsets(offsets), lengths)


def test_concat_csr_blocks_stacks_rows():
    offsets, values = concat_csr_blocks(
        [np.array([0, 2, 3], dtype=np.int64), np.array([0, 0, 1], dtype=np.int64)],
        [np.array([10, 11, 12], dtype=np.int64), np.array([20], dtype=np.int64)],
    )
    np.testing.assert_array_equal(offsets, [0, 2, 3, 3, 4])
    np.testing.assert_array_equal(values, [10, 11, 12, 20])


def test_rowwise_concat_interleaves_rows():
    offsets, values = rowwise_concat_csr(
        [np.array([0, 2, 2], dtype=np.int64), np.array([0, 1, 3], dtype=np.int64)],
        [np.array([1, 2], dtype=np.int64), np.array([7, 8, 9], dtype=np.int64)],
    )
    np.testing.assert_array_equal(offsets, [0, 3, 5])
    np.testing.assert_array_equal(values, [1, 2, 7, 8, 9])


# ----------------------------------------------------------------------
# Invalidation-safe column caches
# ----------------------------------------------------------------------


def _col(lengths, name="s"):
    offsets = offsets_from_lengths(np.asarray(lengths, dtype=np.int64))
    values = np.arange(int(offsets[-1]), dtype=np.int64)
    return SparseColumn(name, offsets, values, hash_size=1000)


def test_lengths_cached_and_read_only():
    col = _col([2, 0, 3])
    first = col.lengths()
    assert col.lengths() is first  # cached, not recomputed
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 99


def test_offsets_frozen_against_cache_invalidation():
    col = _col([1, 4])
    with pytest.raises(ValueError):
        col.offsets[1] = 0  # mutating would silently desync the cache


def test_trusted_column_lazily_caches_lengths():
    base = _col([2, 1])
    col = SparseColumn.trusted("t", base.offsets, base.values, 1000)
    first = col.lengths()
    np.testing.assert_array_equal(first, [2, 1])
    assert col.lengths() is first


# ----------------------------------------------------------------------
# _config_noise memoization
# ----------------------------------------------------------------------


def test_config_noise_memoized_and_stable():
    _config_noise.cache_clear()
    key = ("SigridHash", 4096, 2.0, 7, 11)
    first = _config_noise(key)
    assert _config_noise(key) == first
    info = _config_noise.cache_info()
    assert info.hits >= 1 and info.misses == 1
    # Memoized result is exactly the uncached computation.
    assert first == _config_noise.__wrapped__(key)
    # The cache is bounded, not unbounded growth.
    assert info.maxsize is not None


def test_config_noise_feeds_kernel_lowering():
    op = make_op("SigridHash", ("s0",), "h", salt=1, max_value=101)
    _config_noise.cache_clear()
    first = op.gpu_kernel(4096, avg_list_length=2.0)
    hits_before = _config_noise.cache_info().hits
    again = op.gpu_kernel(4096, avg_list_length=2.0)
    assert again.duration_us == first.duration_us
    assert _config_noise.cache_info().hits > hits_before
