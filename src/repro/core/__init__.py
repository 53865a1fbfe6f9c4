"""``repro.core`` -- RAP's primary contribution.

The co-running cost model (overlapping capacity estimator + ML latency
predictor), resource-aware horizontal kernel fusion with MILP-backed
planning, the Algorithm-1 co-running scheduler, inter-batch workload
interleaving, the §7.2 joint graph-mapping heuristic, the end-to-end
planner, and plan code generation.
"""

from .capacity import OverlappingCapacityEstimator, REFERENCE_PROBE
from .latency_predictor import (
    KernelSample,
    PREDICTOR_FAMILIES,
    PreprocessingLatencyPredictor,
    collect_training_samples,
    kernel_family,
    kernel_features,
    train_default_predictor,
)
from .cost_model import CoRunCost, CoRunningCostModel, StageCost
from .fusion import (
    FusionPlan,
    HorizontalFusionPass,
    build_fusion_instance,
    shard_to_fit_demand,
)
from .scheduler import CoRunSchedule, ResourceAwareScheduler
from .interleaving import InterbatchInterleaver, SteadyStateTimeline
from .mapping import (
    GraphMapping,
    MappingEvaluation,
    RapMapper,
    map_data_locality,
    map_data_parallel,
    rebuild_comm,
)
from .plan_cache import (
    PLANNER_CODE_VERSION,
    PlanCache,
    PlanCacheStats,
    graph_fingerprint,
    graph_set_fingerprint,
    graph_structure_key,
    plan_cache_key,
    workload_fingerprint,
)
from .planner import (
    PlannerStats,
    RapPlan,
    RapPlanner,
    RapRunReport,
    drift_graph_set,
    scale_plan_kernels,
)
from .codegen import compile_plan, generate_plan_module, load_plan_module
from .hybrid import HybridPlanner, HybridReport, HybridSplit
from .serialization import (
    FORMAT_VERSION,
    PlanLoadError,
    load_plan,
    plan_from_json,
    plan_to_json,
    resilience_from_json,
    save_plan,
)

__all__ = [
    "OverlappingCapacityEstimator",
    "REFERENCE_PROBE",
    "KernelSample",
    "PREDICTOR_FAMILIES",
    "PreprocessingLatencyPredictor",
    "collect_training_samples",
    "kernel_family",
    "kernel_features",
    "train_default_predictor",
    "CoRunCost",
    "CoRunningCostModel",
    "StageCost",
    "FusionPlan",
    "HorizontalFusionPass",
    "build_fusion_instance",
    "shard_to_fit_demand",
    "CoRunSchedule",
    "ResourceAwareScheduler",
    "InterbatchInterleaver",
    "SteadyStateTimeline",
    "GraphMapping",
    "MappingEvaluation",
    "RapMapper",
    "map_data_locality",
    "map_data_parallel",
    "rebuild_comm",
    "PLANNER_CODE_VERSION",
    "PlanCache",
    "PlanCacheStats",
    "graph_fingerprint",
    "graph_set_fingerprint",
    "graph_structure_key",
    "plan_cache_key",
    "workload_fingerprint",
    "PlannerStats",
    "RapPlan",
    "RapPlanner",
    "RapRunReport",
    "compile_plan",
    "generate_plan_module",
    "load_plan_module",
    "HybridPlanner",
    "HybridReport",
    "HybridSplit",
    "drift_graph_set",
    "scale_plan_kernels",
    "FORMAT_VERSION",
    "PlanLoadError",
    "load_plan",
    "plan_from_json",
    "plan_to_json",
    "resilience_from_json",
    "save_plan",
]
