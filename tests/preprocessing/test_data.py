"""Unit tests for the synthetic Criteo data substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.preprocessing.data import (
    Batch,
    CriteoSchema,
    DenseColumn,
    KAGGLE_SCHEMA,
    SparseColumn,
    SyntheticCriteoDataset,
    TERABYTE_SCHEMA,
    concat_csr_blocks,
    offsets_from_lengths,
    rowwise_concat_csr,
)


class TestDenseColumn:
    def test_basic(self):
        col = DenseColumn("d", np.array([1.0, 2.0], dtype=np.float32))
        assert len(col) == 2

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            DenseColumn("d", np.zeros((2, 2)))

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError):
            DenseColumn("d", np.array(["a", "b"]))

    def test_copy_is_independent(self):
        col = DenseColumn("d", np.array([1.0, 2.0]))
        copy = col.copy()
        copy.values[0] = 99.0
        assert col.values[0] == 1.0

    def test_preserves_dtype(self):
        col = DenseColumn("d", np.array([1, 2], dtype=np.int32))
        assert col.values.dtype == np.int32


class TestSparseColumn:
    def test_basic(self):
        col = SparseColumn("s", [0, 2, 3], [5, 6, 7], hash_size=10)
        assert col.num_rows == 2
        assert col.nnz == 3
        np.testing.assert_array_equal(col.row(0), [5, 6])
        np.testing.assert_array_equal(col.row(1), [7])

    def test_lengths(self):
        col = SparseColumn("s", [0, 2, 3], [5, 6, 7], hash_size=10)
        np.testing.assert_array_equal(col.lengths(), [2, 1])

    def test_rejects_bad_offsets_start(self):
        with pytest.raises(ValueError):
            SparseColumn("s", [1, 2], [5], hash_size=10)

    def test_rejects_offsets_mismatch(self):
        with pytest.raises(ValueError):
            SparseColumn("s", [0, 5], [1, 2], hash_size=10)

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(ValueError):
            SparseColumn("s", [0, 3, 2, 4], [1, 2, 3, 4], hash_size=10)

    def test_rejects_nonpositive_hash_size(self):
        with pytest.raises(ValueError):
            SparseColumn("s", [0, 1], [1], hash_size=0)

    def test_empty_rows_allowed(self):
        col = SparseColumn("s", [0, 0, 1], [3], hash_size=10)
        assert col.row(0).size == 0


class TestBatch:
    def test_size_consistency_enforced(self):
        with pytest.raises(ValueError):
            Batch(
                dense={"d": DenseColumn("d", np.zeros(4))},
                sparse={"s": SparseColumn("s", [0, 1], [1], hash_size=5)},
            )

    def test_column_lookup(self):
        b = Batch(dense={"d": DenseColumn("d", np.zeros(3))})
        assert b.column("d").name == "d"
        with pytest.raises(KeyError):
            b.column("missing")

    def test_put_routes_by_type(self):
        b = Batch(dense={"d": DenseColumn("d", np.zeros(3))})
        b.put(SparseColumn("s", [0, 1, 2, 3], [1, 2, 3], hash_size=5))
        assert "s" in b.sparse

    def test_empty_batch_size_zero(self):
        assert Batch().size == 0

    def test_copy_deep(self, small_batch):
        c = small_batch.copy()
        name = next(iter(c.dense))
        c.dense[name].values[:] = -1
        assert not np.array_equal(c.dense[name].values, small_batch.dense[name].values)


class TestCriteoSchema:
    def test_table2_shapes(self):
        assert KAGGLE_SCHEMA.num_dense == 13
        assert KAGGLE_SCHEMA.num_sparse == 26
        assert KAGGLE_SCHEMA.total_hash_size == 33_700_000
        assert TERABYTE_SCHEMA.total_hash_size == 177_900_000

    def test_hash_sizes_sum_close_to_total(self):
        sizes = TERABYTE_SCHEMA.hash_sizes()
        assert len(sizes) == 26
        assert sum(sizes) == pytest.approx(TERABYTE_SCHEMA.total_hash_size, rel=0.05)

    def test_hash_sizes_have_floor(self):
        sizes = KAGGLE_SCHEMA.hash_sizes()
        assert all(s >= 1000 for s in sizes)

    def test_scaled(self):
        wide = TERABYTE_SCHEMA.scaled(2, 4)
        assert wide.num_dense == 26
        assert wide.num_sparse == 104

    def test_names(self):
        assert KAGGLE_SCHEMA.dense_names()[0] == "dense_0"
        assert KAGGLE_SCHEMA.sparse_names()[-1] == "sparse_25"


class TestSyntheticCriteoDataset:
    def test_batch_shape(self):
        ds = SyntheticCriteoDataset(KAGGLE_SCHEMA, seed=1)
        b = ds.batch(128)
        assert b.size == 128
        assert len(b.dense) == 13
        assert len(b.sparse) == 26

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            SyntheticCriteoDataset(KAGGLE_SCHEMA).batch(0)

    def test_deterministic_by_seed_and_index(self):
        a = SyntheticCriteoDataset(KAGGLE_SCHEMA, seed=5).batch(64, index=3)
        b = SyntheticCriteoDataset(KAGGLE_SCHEMA, seed=5).batch(64, index=3)
        np.testing.assert_array_equal(a.dense["dense_0"].values, b.dense["dense_0"].values)
        np.testing.assert_array_equal(a.sparse["sparse_0"].values, b.sparse["sparse_0"].values)

    def test_different_indices_differ(self):
        ds = SyntheticCriteoDataset(KAGGLE_SCHEMA, seed=5)
        a, b = ds.batch(64, 0), ds.batch(64, 1)
        assert not np.array_equal(a.dense["dense_0"].values, b.dense["dense_0"].values)

    def test_nan_rate_respected(self):
        schema = CriteoSchema(name="t", nan_rate=0.5)
        b = SyntheticCriteoDataset(schema, seed=2).batch(4096)
        frac = float(np.isnan(b.dense["dense_0"].values).mean())
        assert 0.4 < frac < 0.6

    def test_zero_nan_rate(self):
        schema = CriteoSchema(name="t", nan_rate=0.0)
        b = SyntheticCriteoDataset(schema, seed=2).batch(512)
        for col in b.dense.values():
            assert not np.isnan(col.values).any()

    def test_ids_within_hash_space(self):
        ds = SyntheticCriteoDataset(KAGGLE_SCHEMA, seed=3)
        b = ds.batch(512)
        for col in b.sparse.values():
            assert col.values.min() >= 0
            assert col.values.max() < col.hash_size

    def test_min_one_id_per_row(self):
        ds = SyntheticCriteoDataset(KAGGLE_SCHEMA, seed=4)
        b = ds.batch(256)
        for col in b.sparse.values():
            assert col.lengths().min() >= 1

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=512))
    def test_any_batch_size_valid(self, n):
        ds = SyntheticCriteoDataset(KAGGLE_SCHEMA, seed=1)
        b = ds.batch(n)
        assert b.size == n
        for col in b.sparse.values():
            assert col.offsets[-1] == col.nnz


class TestCsrHelperDtypesAndOutBuffers:
    """Satellites: dtype preservation across CSR helpers + out validation."""

    def _cols(self, dtype):
        a_off = np.array([0, 2, 3], dtype=np.int64)
        a_val = np.array([1, 2, 3], dtype=dtype)
        b_off = np.array([0, 1, 3], dtype=np.int64)
        b_val = np.array([7, 8, 9], dtype=dtype)
        return [a_off, b_off], [a_val, b_val]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16, np.float32])
    def test_both_helpers_preserve_values_dtype(self, dtype):
        offsets_list, values_list = self._cols(dtype)
        _, block_vals = concat_csr_blocks(offsets_list, values_list)
        _, row_vals = rowwise_concat_csr(offsets_list, values_list)
        # The fix: rowwise_concat_csr hardcoded int64; both helpers must
        # agree on the promoted input dtype.
        assert block_vals.dtype == np.dtype(dtype)
        assert row_vals.dtype == np.dtype(dtype)

    def test_helpers_promote_mixed_dtypes_identically(self):
        offsets_list, values_list = self._cols(np.int32)
        values_list[1] = values_list[1].astype(np.int64)
        _, block_vals = concat_csr_blocks(offsets_list, values_list)
        _, row_vals = rowwise_concat_csr(offsets_list, values_list)
        assert block_vals.dtype == row_vals.dtype == np.int64

    def test_rowwise_values_correct_with_narrow_dtype(self):
        offsets_list, values_list = self._cols(np.int32)
        offsets, values = rowwise_concat_csr(offsets_list, values_list)
        np.testing.assert_array_equal(offsets, [0, 3, 6])
        np.testing.assert_array_equal(values, [1, 2, 7, 3, 8, 9])

    def test_offsets_from_lengths_out_validation(self):
        lengths = np.array([2, 1, 3], dtype=np.int64)
        good = np.empty(4, dtype=np.int64)
        result = offsets_from_lengths(lengths, out=good)
        assert result is good
        np.testing.assert_array_equal(result, [0, 2, 3, 6])
        with pytest.raises(ValueError, match="need len\\(lengths\\) \\+ 1 = 4"):
            offsets_from_lengths(lengths, out=np.empty(3, dtype=np.int64))
        with pytest.raises(ValueError, match="integer dtype"):
            offsets_from_lengths(lengths, out=np.empty(4, dtype=np.float64))

    def test_concat_csr_blocks_out_validation(self):
        offsets_list, values_list = self._cols(np.int64)
        with pytest.raises(ValueError, match="out_offsets has 3 entries, need"):
            concat_csr_blocks(offsets_list, values_list, out_offsets=np.empty(3, dtype=np.int64))
        with pytest.raises(ValueError, match="out_offsets must be an integer dtype"):
            concat_csr_blocks(offsets_list, values_list, out_offsets=np.empty(5, dtype=np.float32))
        with pytest.raises(ValueError, match="out_values has 2 entries, need total_nnz = 6"):
            concat_csr_blocks(offsets_list, values_list, out_values=np.empty(2, dtype=np.int64))

    def test_concat_csr_blocks_rejects_lossy_out_values(self):
        offsets_list, values_list = self._cols(np.int64)
        with pytest.raises(ValueError, match="cannot safely hold"):
            concat_csr_blocks(offsets_list, values_list, out_values=np.empty(6, dtype=np.int16))

    def test_concat_csr_blocks_widening_out_values_allowed(self):
        offsets_list, values_list = self._cols(np.int32)
        out_values = np.empty(6, dtype=np.int64)
        _, got = concat_csr_blocks(offsets_list, values_list, out_values=out_values)
        assert got is out_values
        np.testing.assert_array_equal(got, [1, 2, 3, 7, 8, 9])
