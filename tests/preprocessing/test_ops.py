"""Unit tests for the Table-1 operator library: transforms and cost model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.resources import A100_SPEC
from repro.preprocessing.data import Batch, DenseColumn, SparseColumn
from repro.preprocessing.ops import (
    OP_REGISTRY,
    BoxCox,
    Bucketize,
    Cast,
    Clamp,
    FillNull,
    FirstX,
    Logit,
    MapId,
    Ngram,
    Onehot,
    SigridHash,
    concat_sparse_rows,
    make_op,
)


def dense_batch(values):
    return Batch(dense={"x": DenseColumn("x", np.asarray(values, dtype=np.float32))})


def sparse_batch(offsets, values, hash_size=1000):
    return Batch(sparse={"s": SparseColumn("s", offsets, values, hash_size)})


class TestRegistry:
    def test_all_eleven_ops_registered(self):
        assert len(OP_REGISTRY) == 11
        expected = {
            "Logit", "BoxCox", "Onehot", "SigridHash", "FirstX", "Clamp",
            "Bucketize", "Ngram", "MapId", "FillNull", "Cast",
        }
        assert set(OP_REGISTRY) == expected

    def test_make_op(self):
        op = make_op("FillNull", ["x"], "y", fill_value=3.0)
        assert isinstance(op, FillNull)
        assert op.fill_value == 3.0

    def test_make_op_unknown(self):
        with pytest.raises(KeyError):
            make_op("Nonexistent", ["x"], "y")

    def test_categories_match_table1(self):
        assert OP_REGISTRY["Logit"].category == "DN"
        assert OP_REGISTRY["SigridHash"].category == "SN"
        assert OP_REGISTRY["Ngram"].category == "FG"
        assert OP_REGISTRY["FillNull"].category == "Other"

    def test_single_input_ops_reject_multiple_inputs(self):
        with pytest.raises(ValueError):
            FillNull(inputs=("a", "b"), output="y")

    def test_ops_require_inputs(self):
        with pytest.raises(ValueError):
            Ngram(inputs=(), output="y")


class TestFillNull:
    def test_replaces_nan(self):
        b = dense_batch([1.0, np.nan, 3.0])
        out = FillNull(inputs=("x",), output="y", fill_value=-1.0).apply(b)
        np.testing.assert_array_equal(out.values, [1.0, -1.0, 3.0])

    def test_output_added_to_batch(self):
        b = dense_batch([1.0])
        FillNull(inputs=("x",), output="y").apply(b)
        assert "y" in b.dense


class TestLogit:
    def test_midpoint_is_zero(self):
        b = dense_batch([0.5])
        out = Logit(inputs=("x",), output="y").apply(b)
        assert out.values[0] == pytest.approx(0.0, abs=1e-6)

    def test_clipping_keeps_finite(self):
        b = dense_batch([0.0, 1.0, -5.0, 7.0])
        out = Logit(inputs=("x",), output="y").apply(b)
        assert np.isfinite(out.values).all()

    def test_monotone(self):
        b = dense_batch([0.1, 0.4, 0.9])
        out = Logit(inputs=("x",), output="y").apply(b)
        assert out.values[0] < out.values[1] < out.values[2]


class TestBoxCox:
    def test_lambda_half(self):
        b = dense_batch([4.0])
        out = BoxCox(inputs=("x",), output="y", lmbda=0.5).apply(b)
        assert out.values[0] == pytest.approx((2.0 - 1.0) / 0.5)

    def test_lambda_zero_is_log(self):
        b = dense_batch([np.e])
        out = BoxCox(inputs=("x",), output="y", lmbda=0.0).apply(b)
        assert out.values[0] == pytest.approx(1.0, rel=1e-5)

    def test_nonpositive_inputs_clamped(self):
        b = dense_batch([-3.0, 0.0])
        out = BoxCox(inputs=("x",), output="y", lmbda=0.5).apply(b)
        assert np.isfinite(out.values).all()


class TestOnehot:
    def test_hot_index(self):
        b = dense_batch([0.0, 0.5, 0.99])
        out = Onehot(inputs=("x",), output="y", num_classes=4).apply(b)
        np.testing.assert_array_equal(out.values, [0, 2, 3])
        assert out.hash_size == 4

    def test_nan_goes_to_class_zero(self):
        b = dense_batch([np.nan])
        out = Onehot(inputs=("x",), output="y", num_classes=8).apply(b)
        assert out.values[0] == 0

    def test_one_id_per_row(self):
        b = dense_batch([0.1, 0.2, 0.3])
        out = Onehot(inputs=("x",), output="y", num_classes=4).apply(b)
        np.testing.assert_array_equal(out.lengths(), [1, 1, 1])


class TestSigridHash:
    def test_output_bounded(self):
        b = sparse_batch([0, 2, 4], [10, 20, 30, 40])
        out = SigridHash(inputs=("s",), output="y", max_value=100).apply(b)
        assert out.values.min() >= 0
        assert out.values.max() < 100

    def test_deterministic(self):
        b1 = sparse_batch([0, 2], [10, 20])
        b2 = sparse_batch([0, 2], [10, 20])
        op = SigridHash(inputs=("s",), output="y", max_value=1000)
        np.testing.assert_array_equal(op.apply(b1).values, op.apply(b2).values)

    def test_salt_changes_hash(self):
        b1 = sparse_batch([0, 2], [10, 20])
        b2 = sparse_batch([0, 2], [10, 20])
        a = SigridHash(inputs=("s",), output="y", max_value=10**9, salt=1).apply(b1)
        c = SigridHash(inputs=("s",), output="y", max_value=10**9, salt=2).apply(b2)
        assert not np.array_equal(a.values, c.values)

    def test_preserves_offsets(self):
        b = sparse_batch([0, 1, 4], [1, 2, 3, 4])
        out = SigridHash(inputs=("s",), output="y").apply(b)
        np.testing.assert_array_equal(out.offsets, [0, 1, 4])


class TestFirstX:
    def test_truncation(self):
        b = sparse_batch([0, 4, 5], [1, 2, 3, 4, 5])
        out = FirstX(inputs=("s",), output="y", x=2).apply(b)
        np.testing.assert_array_equal(out.lengths(), [2, 1])
        np.testing.assert_array_equal(out.values, [1, 2, 5])

    def test_short_rows_untouched(self):
        b = sparse_batch([0, 1, 2], [7, 8])
        out = FirstX(inputs=("s",), output="y", x=5).apply(b)
        np.testing.assert_array_equal(out.values, [7, 8])

    def test_rejects_nonpositive_x(self):
        b = sparse_batch([0, 1], [1])
        with pytest.raises(ValueError):
            FirstX(inputs=("s",), output="y", x=0).apply(b)

    def test_keeps_order_within_row(self):
        b = sparse_batch([0, 5], [9, 8, 7, 6, 5])
        out = FirstX(inputs=("s",), output="y", x=3).apply(b)
        np.testing.assert_array_equal(out.values, [9, 8, 7])


class TestClamp:
    def test_clamps(self):
        b = sparse_batch([0, 3], [5, 50, 500])
        out = Clamp(inputs=("s",), output="y", lower=10, upper=100).apply(b)
        np.testing.assert_array_equal(out.values, [10, 50, 100])

    def test_rejects_inverted_bounds(self):
        b = sparse_batch([0, 1], [5])
        with pytest.raises(ValueError):
            Clamp(inputs=("s",), output="y", lower=10, upper=1).apply(b)


class TestBucketize:
    def test_bucket_indices(self):
        b = dense_batch([0.1, 0.3, 0.6, 0.9])
        out = Bucketize(inputs=("x",), output="y", borders=(0.25, 0.5, 0.75)).apply(b)
        np.testing.assert_array_equal(out.values, [0, 1, 2, 3])
        assert out.hash_size == 4

    def test_rejects_unsorted_borders(self):
        with pytest.raises(ValueError):
            Bucketize(inputs=("x",), output="y", borders=(0.5, 0.25))

    def test_boundary_goes_right(self):
        b = dense_batch([0.25])
        out = Bucketize(inputs=("x",), output="y", borders=(0.25, 0.5)).apply(b)
        assert out.values[0] == 1


class TestNgram:
    def test_gram_counts(self):
        # One feature, rows of lengths 4 and 2, n=3 -> 2 and 0 grams.
        b = sparse_batch([0, 4, 6], [1, 2, 3, 4, 5, 6])
        out = Ngram(inputs=("s",), output="y", n=3, out_hash_size=1000).apply(b)
        np.testing.assert_array_equal(out.lengths(), [2, 0])

    def test_multi_feature_concat(self):
        b = Batch(
            sparse={
                "a": SparseColumn("a", [0, 2], [1, 2], 100),
                "b": SparseColumn("b", [0, 2], [3, 4], 100),
            }
        )
        out = Ngram(inputs=("a", "b"), output="y", n=2, out_hash_size=1000).apply(b)
        # Concatenated row [1,2,3,4] -> 3 bigrams.
        np.testing.assert_array_equal(out.lengths(), [3])

    def test_no_grams_across_rows(self):
        b = sparse_batch([0, 1, 2], [1, 2])
        out = Ngram(inputs=("s",), output="y", n=2, out_hash_size=1000).apply(b)
        assert out.nnz == 0

    def test_unigram_is_per_element_hash(self):
        b = sparse_batch([0, 3], [1, 2, 3])
        out = Ngram(inputs=("s",), output="y", n=1, out_hash_size=10**9).apply(b)
        assert out.nnz == 3

    def test_rejects_n_below_one(self):
        b = sparse_batch([0, 1], [1])
        with pytest.raises(ValueError):
            Ngram(inputs=("s",), output="y", n=0).apply(b)

    def test_grams_bounded_by_hash_size(self):
        b = sparse_batch([0, 6], [11, 12, 13, 14, 15, 16])
        out = Ngram(inputs=("s",), output="y", n=2, out_hash_size=17).apply(b)
        assert out.values.max() < 17


class TestMapId:
    def test_affine_remap(self):
        b = sparse_batch([0, 2], [3, 4])
        op = MapId(inputs=("s",), output="y", multiplier=7, offset=1, table_size=100)
        out = op.apply(b)
        np.testing.assert_array_equal(out.values, [(3 * 7 + 1) % 100, (4 * 7 + 1) % 100])

    def test_bounded(self):
        b = sparse_batch([0, 3], [10**9, 5, 77])
        out = MapId(inputs=("s",), output="y", table_size=50).apply(b)
        assert out.values.max() < 50


class TestCast:
    def test_cast_dtype(self):
        b = dense_batch([1.5, 2.5])
        out = Cast(inputs=("x",), output="y", dtype="int32").apply(b)
        assert out.values.dtype == np.int32

    def test_cast_nan_to_int_safe(self):
        b = dense_batch([np.nan, 1.0])
        out = Cast(inputs=("x",), output="y", dtype="int64").apply(b)
        assert out.values[0] == 0


class TestConcatSparseRows:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            concat_sparse_rows([], "y", 10)

    def test_rejects_mismatched_rows(self):
        a = SparseColumn("a", [0, 1], [1], 10)
        b = SparseColumn("b", [0, 1, 2], [1, 2], 10)
        with pytest.raises(ValueError):
            concat_sparse_rows([a, b], "y", 10)

    def test_rowwise_order(self):
        a = SparseColumn("a", [0, 2, 3], [1, 2, 3], 10)
        b = SparseColumn("b", [0, 1, 3], [4, 5, 6], 10)
        out = concat_sparse_rows([a, b], "y", 10)
        np.testing.assert_array_equal(out.row(0), [1, 2, 4])
        np.testing.assert_array_equal(out.row(1), [3, 5, 6])


class TestCostModel:
    def test_duration_includes_launch(self):
        k = FillNull(inputs=("x",), output="y").gpu_kernel(16)
        assert k.duration_us > A100_SPEC.kernel_launch_us

    def test_duration_monotone_in_rows_when_saturated(self):
        op = Ngram(inputs=tuple(f"f{i}" for i in range(8)), output="y", n=3)
        k1 = op.gpu_kernel(16_384)
        k2 = op.gpu_kernel(65_536)
        assert k2.duration_us > k1.duration_us

    def test_demand_monotone_in_width(self):
        """Fig. 1b: wider Ngram kernels demand more of the GPU."""
        demands = []
        for width in (2, 8, 32):
            op = Ngram(inputs=tuple(f"f{i}" for i in range(width)), output="y", n=3)
            demands.append(op.gpu_kernel(4096).demand.sm)
        assert demands == sorted(demands)
        assert demands[-1] > demands[0]

    def test_feature_generation_costs_more_than_normalization(self):
        """Table 1 family heterogeneity: FG >> DN per feature (Fig. 5c)."""
        ngram = Ngram(inputs=("a", "b", "c"), output="y", n=3).gpu_kernel(262_144)
        logit = Logit(inputs=("x",), output="y").gpu_kernel(262_144)
        assert ngram.duration_us > 4 * logit.duration_us

    def test_noise_is_deterministic(self):
        op = SigridHash(inputs=("s",), output="y")
        assert op.gpu_kernel(4096).duration_us == op.gpu_kernel(4096).duration_us

    def test_noise_within_band(self):
        """Perturbation stays within +/-8% of the analytic value."""
        op = FillNull(inputs=("x",), output="y")
        durations = [op.gpu_kernel(r).duration_us for r in range(1000, 9000, 500)]
        bodies = [d - A100_SPEC.kernel_launch_us for d in durations]
        assert max(bodies) / min(bodies) < 1.20

    def test_cpu_latency_much_slower_than_gpu(self):
        op = SigridHash(inputs=("s",), output="y")
        assert op.cpu_latency_us(4096) > 10 * op.gpu_kernel(4096).duration_us

    def test_kernel_tag_matches_op(self):
        for name, cls in OP_REGISTRY.items():
            inputs = ("a", "b", "c") if cls.input_kind == "multi_sparse" else ("a",)
            k = cls(inputs=inputs, output="y").gpu_kernel(256)
            assert k.tag == name

    @settings(max_examples=20, deadline=None)
    @given(rows=st.integers(min_value=1, max_value=100_000))
    def test_kernel_always_valid(self, rows):
        op = SigridHash(inputs=("s",), output="y")
        k = op.gpu_kernel(rows)
        assert k.duration_us > 0
        assert 0 <= k.demand.sm <= 1
        assert 0 <= k.demand.dram <= 1
        assert k.num_warps >= 1


@settings(max_examples=20, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40),
    n=st.integers(min_value=1, max_value=4),
)
def test_ngram_length_invariant(lengths, n):
    """Property: per-row gram count is max(0, len - n + 1)."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    values = np.arange(int(offsets[-1]), dtype=np.int64)
    b = Batch(sparse={"s": SparseColumn("s", offsets, values, 10**6)})
    out = Ngram(inputs=("s",), output="y", n=n, out_hash_size=10**6).apply(b)
    expected = [max(0, L - n + 1) for L in lengths]
    np.testing.assert_array_equal(out.lengths(), expected)
