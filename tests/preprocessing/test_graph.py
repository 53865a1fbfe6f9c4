"""Unit tests for feature graphs and graph sets."""

import pytest

from repro.preprocessing.data import SyntheticCriteoDataset, KAGGLE_SCHEMA
from repro.preprocessing.graph import DENSE_CONSUMER, FeatureGraph, GraphSet
from repro.preprocessing.ops import Clamp, FillNull, FirstX, Logit, Ngram, SigridHash


def chain_graph(name="g", consumer="table:sparse_0"):
    return FeatureGraph(
        name=name,
        ops=[
            SigridHash(inputs=("sparse_0",), output=f"{name}_h"),
            FirstX(inputs=(f"{name}_h",), output=f"{name}_f", x=2),
            Clamp(inputs=(f"{name}_f",), output=f"{name}_out", upper=999),
        ],
        consumer=consumer,
    )


class TestFeatureGraph:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FeatureGraph(name="g", ops=[], consumer=DENSE_CONSUMER)

    def test_edges_from_column_names(self):
        g = chain_graph()
        assert g.edges == ((0, 1), (1, 2))

    def test_rejects_duplicate_outputs(self):
        with pytest.raises(ValueError):
            FeatureGraph(
                name="g",
                ops=[
                    FillNull(inputs=("x",), output="y"),
                    Logit(inputs=("y",), output="y"),
                ],
                consumer=DENSE_CONSUMER,
            )

    def test_rejects_non_topological_order(self):
        with pytest.raises(ValueError):
            FeatureGraph(
                name="g",
                ops=[
                    Logit(inputs=("mid",), output="out"),
                    FillNull(inputs=("x",), output="mid"),
                ],
                consumer=DENSE_CONSUMER,
            )

    def test_raw_inputs(self):
        g = chain_graph()
        assert g.raw_inputs() == {"sparse_0"}

    def test_multi_input_raw(self):
        g = FeatureGraph(
            name="ng",
            ops=[Ngram(inputs=("a", "b"), output="ng_out", n=2)],
            consumer="table:t",
        )
        assert g.raw_inputs() == {"a", "b"}

    def test_op_type_counts(self):
        counts = chain_graph().op_type_counts()
        assert counts == {"SigridHash": 1, "FirstX": 1, "Clamp": 1}

    def test_output_op(self):
        assert chain_graph().output_op.op_name == "Clamp"

    def test_kernels_one_per_op(self):
        ks = chain_graph().kernels(256)
        assert len(ks) == 3
        assert [k.tag for k in ks] == ["SigridHash", "FirstX", "Clamp"]

    def test_standalone_latency_is_sum(self):
        g = chain_graph()
        assert g.standalone_latency_us(256) == pytest.approx(
            sum(k.duration_us for k in g.kernels(256))
        )

    def test_execute_on_real_batch(self):
        ds = SyntheticCriteoDataset(KAGGLE_SCHEMA, seed=9)
        batch = ds.batch(128)
        g = chain_graph()
        g.execute(batch)
        assert "g_out" in batch.sparse
        assert (batch.sparse["g_out"].lengths() <= 2).all()

    def test_output_nbytes_positive(self):
        assert chain_graph().output_nbytes(128) > 0


class TestGraphSet:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            GraphSet([chain_graph("a"), chain_graph("a")], rows=128)

    def test_rejects_duplicate_outputs_across_graphs(self):
        g1 = chain_graph("a")
        g2 = FeatureGraph(
            name="b",
            ops=[SigridHash(inputs=("sparse_1",), output="a_h")],
            consumer="table:sparse_1",
        )
        with pytest.raises(ValueError):
            GraphSet([g1, g2], rows=128)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            GraphSet([chain_graph()], rows=0)

    def test_len_and_iter(self):
        gs = GraphSet([chain_graph("a"), chain_graph("b")], rows=64)
        assert len(gs) == 2
        assert [g.name for g in gs] == ["a", "b"]

    def test_getitem(self):
        gs = GraphSet([chain_graph("a")], rows=64)
        assert gs["a"].name == "a"
        with pytest.raises(KeyError):
            gs["missing"]

    def test_total_ops_and_density(self):
        gs = GraphSet([chain_graph("a"), chain_graph("b")], rows=64)
        assert gs.total_ops == 6
        assert gs.ops_per_feature == 3.0

    def test_consumers(self):
        gs = GraphSet(
            [chain_graph("a", consumer="table:t1"), chain_graph("b", consumer=DENSE_CONSUMER)],
            rows=64,
        )
        assert gs.consumers() == {"table:t1", DENSE_CONSUMER}
        assert len(gs.graphs_for_consumer("table:t1")) == 1

    def test_kernels_flattened(self):
        gs = GraphSet([chain_graph("a"), chain_graph("b")], rows=64)
        assert len(gs.kernels()) == 6

    def test_summary(self):
        gs = GraphSet([chain_graph("a")], rows=64)
        s = gs.summary()
        assert s["num_features"] == 1
        assert s["total_ops"] == 3
