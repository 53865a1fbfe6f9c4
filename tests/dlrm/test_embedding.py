"""Unit tests for embedding-table placement."""

import pytest

from repro.dlrm.embedding import EmbeddingPlacement, place_tables
from repro.dlrm.model import DLRMConfig, EmbeddingTableConfig, MlpArch, kaggle_model


def tiny_config(sizes, threshold=8e9):
    tables = tuple(
        EmbeddingTableConfig(name=f"t{i}", hash_size=s, dim=4) for i, s in enumerate(sizes)
    )
    return DLRMConfig(
        name="tiny",
        dense_arch=MlpArch(4, (8,)),
        top_arch_layers=(8,),
        tables=tables,
        row_wise_threshold_bytes=threshold,
    )


class TestPlaceTables:
    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            place_tables(kaggle_model(), 0)

    def test_every_table_placed(self):
        m = kaggle_model()
        p = place_tables(m, 4)
        for t in m.tables:
            assert p.is_placed(t.name)

    def test_single_gpu_gets_everything(self):
        m = kaggle_model()
        p = place_tables(m, 1)
        assert len(p.tables_on_gpu(0)) == m.num_tables

    def test_memory_balance(self):
        m = kaggle_model()
        p = place_tables(m, 4)
        # Row-wise tables split evenly across all GPUs.
        nbytes = {t.name: t.nbytes / (4 if t.name in p.row_wise_tables else 1) for t in m.tables}
        loads = [sum(nbytes[name] for name in p.tables_on_gpu(g)) for g in range(4)]
        assert max(loads) < 2.0 * min(loads)

    def test_row_wise_threshold(self):
        cfg = tiny_config([100, 10_000_000], threshold=1_000_000)
        p = place_tables(cfg, 2)
        assert "t1" in p.row_wise_tables
        assert p.gpus_for_table("t1") == [0, 1]

    def test_row_wise_disabled_on_single_gpu(self):
        cfg = tiny_config([10_000_000], threshold=1_000_000)
        p = place_tables(cfg, 1)
        assert not p.row_wise_tables


class TestEmbeddingPlacement:
    def test_unplaced_table_raises(self):
        p = EmbeddingPlacement(num_gpus=2)
        with pytest.raises(KeyError):
            p.gpus_for_table("missing")

    def test_tables_on_gpu_includes_row_wise(self):
        p = EmbeddingPlacement(num_gpus=2, table_to_gpu={"a": 0}, row_wise_tables={"rw"})
        assert set(p.tables_on_gpu(0)) == {"a", "rw"}
        assert set(p.tables_on_gpu(1)) == {"rw"}

    def test_lookup_bytes_per_gpu(self):
        cfg = tiny_config([100, 100])
        p = EmbeddingPlacement(num_gpus=2, table_to_gpu={"t0": 0, "t1": 1})
        loads = p.lookup_bytes_per_gpu(cfg, 10)
        assert loads[0] == pytest.approx(loads[1])
        assert loads[0] > 0

    def test_row_wise_lookup_split(self):
        cfg = tiny_config([100])
        p = EmbeddingPlacement(num_gpus=4, row_wise_tables={"t0"})
        loads = p.lookup_bytes_per_gpu(cfg, 8)
        assert len(set(round(x, 9) for x in loads)) == 1
