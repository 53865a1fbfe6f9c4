"""``repro.preprocessing`` -- DLRM input preprocessing substrate.

Implements the paper's Table-1 operator library (real numpy transforms plus
GPU/CPU cost descriptors), the per-feature preprocessing graphs RAP maps
across GPUs, the Table-3 workload plans, a synthetic Criteo-schema data
generator, and a functional executor.
"""

from .data import (
    Batch,
    CriteoSchema,
    DenseColumn,
    KAGGLE_SCHEMA,
    SparseColumn,
    SyntheticCriteoDataset,
    TERABYTE_SCHEMA,
    concat_csr_blocks,
    lengths_from_offsets,
    offsets_from_lengths,
    rowwise_concat_csr,
)
from .engine import (
    BufferArena,
    CompileError,
    CompiledProgram,
    compile_graph_set,
    compile_op_groups,
    plan_slots,
)
from .parallel import (
    EngineMetrics,
    EngineWorkerError,
    ParallelEngine,
    partition_ops,
)
from .ops import (
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
    PreprocessingOp,
    SigridHash,
    concat_sparse_rows,
    make_op,
)
from .graph import DENSE_CONSUMER, FeatureGraph, GraphSet
from .plans import PLAN_TABLE, PlanSpec, build_plan, build_skewed_plan, table_for_sparse_feature
from .executor import (
    DataPreparation,
    KernelExecutionError,
    KernelOOMError,
    MissingColumnsError,
    PreprocessingError,
    WorkerPoolError,
    estimate_data_preparation,
    execute_graph_set,
)
from .random_plans import RandomPlanConfig, generate_random_plan

__all__ = [
    "Batch",
    "CriteoSchema",
    "DenseColumn",
    "SparseColumn",
    "SyntheticCriteoDataset",
    "KAGGLE_SCHEMA",
    "TERABYTE_SCHEMA",
    "concat_csr_blocks",
    "lengths_from_offsets",
    "offsets_from_lengths",
    "rowwise_concat_csr",
    "BufferArena",
    "CompileError",
    "CompiledProgram",
    "EngineMetrics",
    "EngineWorkerError",
    "ParallelEngine",
    "compile_graph_set",
    "compile_op_groups",
    "partition_ops",
    "plan_slots",
    "OP_REGISTRY",
    "PreprocessingOp",
    "BoxCox",
    "Bucketize",
    "Cast",
    "Clamp",
    "FillNull",
    "FirstX",
    "Logit",
    "MapId",
    "Ngram",
    "Onehot",
    "SigridHash",
    "concat_sparse_rows",
    "make_op",
    "DENSE_CONSUMER",
    "FeatureGraph",
    "GraphSet",
    "PLAN_TABLE",
    "PlanSpec",
    "build_plan",
    "build_skewed_plan",
    "table_for_sparse_feature",
    "DataPreparation",
    "PreprocessingError",
    "MissingColumnsError",
    "KernelExecutionError",
    "KernelOOMError",
    "WorkerPoolError",
    "estimate_data_preparation",
    "execute_graph_set",
    "RandomPlanConfig",
    "generate_random_plan",
]
