"""DLRM model configuration (Table 2 of the paper).

A DLRM is a bottom ("dense arch") MLP over continuous features, a set of
embedding tables over categorical features, a pairwise feature-interaction
layer, and a top ("over arch") MLP producing the click probability. Only
the *shape* of the model matters to RAP -- it determines per-stage compute
and memory volume -- so the config captures architecture and table sizes,
and :mod:`repro.dlrm.stages` lowers it to resource profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..preprocessing.data import CriteoSchema, KAGGLE_SCHEMA, TERABYTE_SCHEMA
from ..preprocessing.graph import DENSE_CONSUMER, GraphSet

__all__ = ["EmbeddingTableConfig", "MlpArch", "DLRMConfig", "kaggle_model", "terabyte_model", "model_for_plan"]


@dataclass(frozen=True)
class EmbeddingTableConfig:
    """One embedding table: its id space, vector width, and pooling factor."""

    name: str
    hash_size: int
    dim: int = 128
    avg_ids_per_row: float = 2.0

    def __post_init__(self) -> None:
        if self.hash_size <= 0 or self.dim <= 0:
            raise ValueError(f"table {self.name!r} needs positive hash_size and dim")

    @property
    def nbytes(self) -> int:
        return self.hash_size * self.dim * 4

    def lookup_bytes(self, batch_size: int) -> float:
        """Bytes touched by one batch's pooled lookup (reads of hot rows)."""
        return batch_size * self.avg_ids_per_row * self.dim * 4


@dataclass(frozen=True)
class MlpArch:
    """A dense multi-layer perceptron: input width plus hidden layer widths."""

    input_dim: int
    layers: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.input_dim <= 0 or not self.layers or any(w <= 0 for w in self.layers):
            raise ValueError(f"malformed MLP arch: {self}")

    @property
    def output_dim(self) -> int:
        return self.layers[-1]

    @property
    def num_params(self) -> int:
        dims = (self.input_dim,) + self.layers
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(self.layers)))

    def forward_flops(self, batch_size: int) -> float:
        """Multiply-accumulate FLOPs of one forward pass."""
        dims = (self.input_dim,) + self.layers
        return 2.0 * batch_size * sum(dims[i] * dims[i + 1] for i in range(len(self.layers)))


@dataclass(frozen=True)
class DLRMConfig:
    """Complete model description used by the stage/latency lowering."""

    name: str
    dense_arch: MlpArch
    top_arch_layers: tuple[int, ...]
    tables: tuple[EmbeddingTableConfig, ...]
    embedding_dim: int = 128
    row_wise_threshold_bytes: float = 8e9

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("DLRM needs at least one embedding table")
        names = [t.name for t in self.tables]
        if len(set(names)) != len(names):
            raise ValueError("embedding table names must be unique")

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    @property
    def interaction_dim(self) -> int:
        """Width of the interaction layer output feeding the top MLP.

        DLRM's dot-product interaction of F feature vectors (F tables plus
        the bottom-MLP output) yields F*(F-1)/2 scalars, concatenated with
        the bottom-MLP output.
        """
        f = self.num_tables + 1
        return f * (f - 1) // 2 + self.dense_arch.output_dim

    @property
    def top_arch(self) -> MlpArch:
        return MlpArch(input_dim=self.interaction_dim, layers=self.top_arch_layers)

    @property
    def mlp_param_bytes(self) -> int:
        return 4 * (self.dense_arch.num_params + self.top_arch.num_params)

    def interaction_flops(self, batch_size: int) -> float:
        f = self.num_tables + 1
        return 2.0 * batch_size * f * f * self.embedding_dim


#: Embedding width of Table 2's models.
EMBEDDING_DIM = 128

#: Rows of the table behind a generated feature (an Ngram output or a
#: bucketized dense feature), which has no cardinality in the schema.
GENERATED_TABLE_HASH_SIZE = 2_000_000


def _tables_from_schema(schema: CriteoSchema) -> list[EmbeddingTableConfig]:
    return [
        EmbeddingTableConfig(name=f"table:{feat}", hash_size=size, dim=EMBEDDING_DIM,
                             avg_ids_per_row=schema.avg_list_length)
        for feat, size in zip(schema.sparse_names(), schema.hash_sizes())
    ]


def kaggle_model() -> DLRMConfig:
    """Table 2's Criteo Kaggle configuration (dense 512-256, top 1024-1024-512)."""
    schema = KAGGLE_SCHEMA
    return DLRMConfig(
        name="dlrm_kaggle",
        dense_arch=MlpArch(input_dim=schema.num_dense, layers=(512, 256)),
        top_arch_layers=(1024, 1024, 512),
        tables=tuple(_tables_from_schema(schema)),
        embedding_dim=EMBEDDING_DIM,
    )


def terabyte_model() -> DLRMConfig:
    """Table 2's Criteo Terabyte configuration (top 1024-1024-512-256)."""
    schema = TERABYTE_SCHEMA
    return DLRMConfig(
        name="dlrm_terabyte",
        dense_arch=MlpArch(input_dim=schema.num_dense, layers=(512, 256)),
        top_arch_layers=(1024, 1024, 512, 256),
        tables=tuple(_tables_from_schema(schema)),
        embedding_dim=EMBEDDING_DIM,
    )


def model_for_plan(
    graph_set: GraphSet,
    schema: CriteoSchema,
    dim: int = EMBEDDING_DIM,
) -> DLRMConfig:
    """Build the DLRM whose tables match a preprocessing plan's consumers.

    Every ``table:*`` consumer in the graph set becomes an embedding table:
    raw sparse features take their cardinality from the schema, generated
    features get :data:`GENERATED_TABLE_HASH_SIZE` rows.
    """
    schema_sizes = dict(zip(schema.sparse_names(), schema.hash_sizes()))
    tables: list[EmbeddingTableConfig] = []
    seen: set[str] = set()
    for graph in graph_set:
        consumer = graph.consumer
        if consumer == DENSE_CONSUMER or consumer in seen:
            continue
        seen.add(consumer)
        feature = consumer.removeprefix("table:")
        hash_size = schema_sizes.get(feature, GENERATED_TABLE_HASH_SIZE)
        tables.append(
            EmbeddingTableConfig(
                name=consumer,
                hash_size=hash_size,
                dim=dim,
                avg_ids_per_row=graph.avg_list_length,
            )
        )
    top_layers = (1024, 1024, 512) if schema.name.startswith("criteo_kaggle") else (1024, 1024, 512, 256)
    return DLRMConfig(
        name=f"dlrm_{schema.name}",
        dense_arch=MlpArch(input_dim=schema.num_dense, layers=(512, 256)),
        top_arch_layers=top_layers,
        tables=tuple(tables),
        embedding_dim=dim,
    )
