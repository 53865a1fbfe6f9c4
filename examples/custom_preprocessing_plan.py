#!/usr/bin/env python
"""Author a custom preprocessing plan and let RAP schedule it.

Shows the library the way a downstream user would adopt it: define your
own per-feature operator graphs (an ads-ranking-style workload mixing
normalization and cross-feature generation), map them onto a training job,
and inspect where RAP placed every fused kernel.

Run:  python examples/custom_preprocessing_plan.py
"""

from repro import RapPlanner, SyntheticCriteoDataset, TrainingWorkload, model_for_plan
from repro.experiments.reporting import format_table
from repro.preprocessing import (
    DENSE_CONSUMER,
    CriteoSchema,
    FeatureGraph,
    GraphSet,
    execute_graph_set,
)
from repro.preprocessing.ops import (
    Clamp,
    FillNull,
    FirstX,
    Logit,
    Ngram,
    Onehot,
    SigridHash,
)


def build_custom_plan(rows: int) -> tuple[GraphSet, CriteoSchema]:
    """An ads-ranking style workload: 8 dense + 1 banded + 12 sparse + 2 crosses."""
    schema = CriteoSchema(name="ads_ranking", num_dense=8, num_sparse=12,
                          total_hash_size=40_000_000, avg_list_length=3.0)
    graphs = []
    # Continuous features: impute, then squash.
    for i in range(schema.num_dense):
        graphs.append(
            FeatureGraph(
                name=f"user_age_bucket_{i}",
                ops=[
                    FillNull(inputs=(f"dense_{i}",), output=f"d{i}_fill", fill_value=0.5),
                    Logit(inputs=(f"d{i}_fill",), output=f"d{i}_norm"),
                ],
                consumer=DENSE_CONSUMER,
            )
        )
    # A banded continuous feature: impute, then one-hot into 16 age bands,
    # looked up as an id in the first categorical table.
    graphs.append(
        FeatureGraph(
            name="user_age_band",
            ops=[
                FillNull(inputs=("dense_0",), output="band_fill", fill_value=0.5),
                Onehot(inputs=("band_fill",), output="band_id", num_classes=16),
            ],
            consumer="table:sparse_0",
        )
    )
    # Categorical features: hash, truncate the history, clamp.
    for j in range(schema.num_sparse):
        graphs.append(
            FeatureGraph(
                name=f"item_history_{j}",
                ops=[
                    SigridHash(inputs=(f"sparse_{j}",), output=f"s{j}_hash", max_value=2_000_000),
                    FirstX(inputs=(f"s{j}_hash",), output=f"s{j}_recent", x=5),
                    Clamp(inputs=(f"s{j}_recent",), output=f"s{j}_out", upper=1_999_999),
                ],
                consumer=f"table:sparse_{j}",
                avg_list_length=schema.avg_list_length,
            )
        )
    # Cross features: n-grams over item/category histories.
    for k, feats in enumerate([(0, 1, 2), (3, 4, 5)]):
        inputs = tuple(f"sparse_{j}" for j in feats)
        graphs.append(
            FeatureGraph(
                name=f"item_category_cross_{k}",
                ops=[
                    Ngram(inputs=inputs, output=f"x{k}_gram", n=2, out_hash_size=5_000_000),
                    SigridHash(inputs=(f"x{k}_gram",), output=f"x{k}_out", max_value=3_000_000),
                ],
                consumer=f"table:sparse_{feats[0]}",
                avg_list_length=schema.avg_list_length * len(feats),
            )
        )
    return GraphSet(graphs, rows=rows), schema


def main() -> None:
    graphs, schema = build_custom_plan(rows=4096)
    print(f"Custom plan: {graphs.summary()}")

    # Functional sanity check on real synthetic data.
    batch = SyntheticCriteoDataset(schema, seed=3).batch(4096)
    out = execute_graph_set(graphs, batch)
    print(f"Executed functionally: {len(out.dense) + len(out.sparse)} columns materialized")

    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=4096)
    planner = RapPlanner(workload)
    plan = planner.plan(graphs)
    report = planner.evaluate(plan)

    # Where did every fused kernel land?
    rows = []
    for gpu in range(workload.num_gpus):
        stages = workload.stages_for_gpu(gpu)
        for stage_idx, kernels in sorted(plan.assignments_per_gpu[gpu].items()):
            for k in kernels:
                rows.append([gpu, stages[stage_idx].name, k.name,
                             k.duration_us, k.meta.get("members", 1)])
        for k in plan.trailing_per_gpu[gpu]:
            rows.append([gpu, "(exposed)", k.name, k.duration_us, k.meta.get("members", 1)])
    print()
    print(format_table(["gpu", "co-runs with", "kernel", "latency (us)", "fused ops"], rows,
                       title="RAP co-running schedule"))
    print()
    print(
        f"Iteration {report.iteration_us:,.0f} us "
        f"(ideal {workload.ideal_iteration_us():,.0f} us, "
        f"slowdown {report.training_slowdown:.3f}x)"
    )


if __name__ == "__main__":
    main()
