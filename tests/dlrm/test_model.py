"""Unit tests for DLRM model configuration (Table 2)."""

import pytest

from repro.dlrm.model import (
    DLRMConfig,
    EmbeddingTableConfig,
    MlpArch,
    kaggle_model,
    model_for_plan,
    terabyte_model,
)
from repro.preprocessing import build_plan


class TestMlpArch:
    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            MlpArch(input_dim=0, layers=(10,))
        with pytest.raises(ValueError):
            MlpArch(input_dim=10, layers=())
        with pytest.raises(ValueError):
            MlpArch(input_dim=10, layers=(5, -1))

    def test_param_count(self):
        arch = MlpArch(input_dim=4, layers=(3, 2))
        # (4*3 + 3) + (3*2 + 2) = 15 + 8
        assert arch.num_params == 23

    def test_forward_flops(self):
        arch = MlpArch(input_dim=4, layers=(3,))
        assert arch.forward_flops(10) == pytest.approx(2 * 10 * 12)

    def test_output_dim(self):
        assert MlpArch(input_dim=4, layers=(3, 7)).output_dim == 7


class TestEmbeddingTableConfig:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            EmbeddingTableConfig(name="t", hash_size=0)
        with pytest.raises(ValueError):
            EmbeddingTableConfig(name="t", hash_size=10, dim=0)

    def test_nbytes(self):
        t = EmbeddingTableConfig(name="t", hash_size=100, dim=16)
        assert t.nbytes == 100 * 16 * 4

    def test_lookup_bytes(self):
        t = EmbeddingTableConfig(name="t", hash_size=100, dim=16, avg_ids_per_row=2.0)
        assert t.lookup_bytes(10) == pytest.approx(10 * 2 * 16 * 4)


class TestPresets:
    def test_kaggle_matches_table2(self):
        m = kaggle_model()
        assert m.dense_arch.input_dim == 13
        assert m.dense_arch.layers == (512, 256)
        assert m.top_arch_layers == (1024, 1024, 512)
        assert m.num_tables == 26
        assert m.embedding_dim == 128

    def test_terabyte_matches_table2(self):
        m = terabyte_model()
        assert m.top_arch_layers == (1024, 1024, 512, 256)
        assert sum(t.hash_size for t in m.tables) == pytest.approx(177_900_000, rel=0.05)

    def test_interaction_dim(self):
        m = kaggle_model()
        f = 27
        assert m.interaction_dim == f * (f - 1) // 2 + 256

    def test_top_arch_uses_interaction_dim(self):
        m = kaggle_model()
        assert m.top_arch.input_dim == m.interaction_dim

    def test_duplicate_table_names_rejected(self):
        t = EmbeddingTableConfig(name="t", hash_size=10)
        with pytest.raises(ValueError):
            DLRMConfig(
                name="m",
                dense_arch=MlpArch(13, (64,)),
                top_arch_layers=(64,),
                tables=(t, t),
            )

    def test_requires_tables(self):
        with pytest.raises(ValueError):
            DLRMConfig(name="m", dense_arch=MlpArch(13, (64,)), top_arch_layers=(64,), tables=())


class TestModelForPlan:
    def test_plan1_tables_cover_sparse_features(self):
        gs, schema = build_plan(1, rows=64)
        m = model_for_plan(gs, schema)
        assert m.num_tables == 26

    def test_plan2_adds_generated_tables(self):
        gs, schema = build_plan(2, rows=64)
        m = model_for_plan(gs, schema)
        # 52 raw sparse + 13 bucketized dense + 10 ngram tables.
        assert m.num_tables == 52 + 13 + 10

    def test_raw_features_use_schema_hash_sizes(self):
        gs, schema = build_plan(1, rows=64)
        m = model_for_plan(gs, schema)
        sizes = dict(zip(schema.sparse_names(), schema.hash_sizes()))
        table = next(t for t in m.tables if t.name == "table:sparse_0")
        assert table.hash_size == sizes["sparse_0"]
