"""Figure 11 (and Table 4): latency vs growing preprocessing workload.

DLRM training is fixed while NGram operations are added one by one. Three
settings are compared:

- **Baseline**: offload the kernels to the GPU with no other optimization
  (unfused, issued from the top of the iteration);
- **Horizontal Fusion**: fuse the kernels, still naively scheduled;
- **Fusion + Scheduling (RAP)**: the full resource-aware pipeline.

Each curve stays flat until the workload outgrows what its setting can
hide, then rises; the *turning point* (first size where latency exceeds
the no-preprocessing latency by >10%) arrives earliest for the baseline
and latest for RAP. Table 4 reports GPU/SM utilization at each setting's
turning point.
"""

from __future__ import annotations

from ..core.capacity import OverlappingCapacityEstimator
from ..core.cost_model import CoRunningCostModel
from ..core.fusion import HorizontalFusionPass
from ..core.scheduler import ResourceAwareScheduler
from ..dlrm import TrainingWorkload, terabyte_model
from ..gpusim import GpuDevice, MPS_POLICY
from ..preprocessing.graph import FeatureGraph, GraphSet
from ..preprocessing.ops import Ngram
from .plotting import ascii_line_chart
from .reporting import format_table

__all__ = ["run", "render", "SETTINGS"]

SETTINGS = ("baseline", "fusion", "rap")


def _ngram_graphs(count: int, rows: int) -> GraphSet:
    graphs = [
        FeatureGraph(
            name=f"fig11_ng{i}",
            ops=[
                Ngram(
                    inputs=(f"sparse_{(3 * i) % 26}", f"sparse_{(3 * i + 1) % 26}", f"sparse_{(3 * i + 2) % 26}"),
                    output=f"fig11_ng{i}_out",
                    n=3,
                )
            ],
            consumer=f"table:sparse_{(3 * i) % 26}",
        )
        for i in range(count)
    ]
    return GraphSet(graphs, rows=rows)


def _simulate(setting: str, count: int, workload: TrainingWorkload, device: GpuDevice):
    stages = workload.stages_for_gpu(0)
    if count == 0:
        return device.run_training_standalone(stages)
    graph_set = _ngram_graphs(count, workload.local_batch)
    fusion = HorizontalFusionPass(workload.spec, enabled=(setting != "baseline"))
    plan = fusion.run(list(graph_set), workload.local_batch)
    if setting == "rap":
        cost_model = CoRunningCostModel(OverlappingCapacityEstimator(workload.spec))
        schedule = ResourceAwareScheduler(cost_model).schedule(stages, plan.kernels)
        return device.simulate_iteration(
            stages, assignments=schedule.assignments, trailing_kernels=schedule.trailing
        )
    # "Without other optimization" means sharing the GPU the way a generic
    # mechanism does (MPS-style sequential issue from the top of the
    # iteration), not RAP's compiled contention-free schedule.
    return device.simulate_iteration(stages, assignments={0: plan.kernels}, policy=MPS_POLICY)


def run(
    workload_sizes=tuple(range(0, 97, 8)),
    num_gpus: int = 4,
    local_batch: int = 4096,
) -> dict:
    """Sweep the NGram count for each setting; find turning points."""
    workload = TrainingWorkload(terabyte_model(), num_gpus=num_gpus, local_batch=local_batch)
    device = GpuDevice(workload.spec)
    base_latency = device.run_training_standalone(workload.stages_for_gpu(0)).total_time_us
    rows: list[dict] = []
    utilization: dict[str, dict] = {}
    turning: dict[str, int | None] = {}
    for setting in SETTINGS:
        prev_result = None
        turning[setting] = None
        for count in workload_sizes:
            result = _simulate(setting, count, workload, device)
            rows.append(
                {
                    "setting": setting,
                    "ngram_ops": count,
                    "latency_us": result.total_time_us,
                    "relative": result.total_time_us / base_latency,
                }
            )
            if turning[setting] is None and result.total_time_us > 1.10 * base_latency:
                turning[setting] = count
                # Profile over the training window (trailing exposed work
                # runs on an otherwise idle device and is not "sharing").
                window = (0.0, result.training_time_us or result.total_time_us)
                mean = result.trace.mean_utilization(*window)
                utilization[setting] = {
                    "gpu_utilization": result.trace.mean_peak_utilization(*window),
                    "sm_utilization": mean.sm,
                    "dram_utilization": mean.dram,
                }
            prev_result = result
        if turning[setting] is None:
            # Never turned within the sweep: record the last point's profile.
            window = (0.0, prev_result.training_time_us or prev_result.total_time_us)
            mean = prev_result.trace.mean_utilization(*window)
            utilization[setting] = {
                "gpu_utilization": prev_result.trace.mean_peak_utilization(*window),
                "sm_utilization": mean.sm,
                "dram_utilization": mean.dram,
            }
    return {
        "rows": rows,
        "base_latency_us": base_latency,
        "turning_points": turning,
        "table4": utilization,
    }


def render(results: dict) -> str:
    curve = format_table(
        ["setting", "#ngram ops", "latency us", "vs no-preproc"],
        [[r["setting"], r["ngram_ops"], r["latency_us"], r["relative"]] for r in results["rows"]],
        title=f"Figure 11: latency vs preprocessing workload (base {results['base_latency_us']:.0f} us)",
    )
    tp = results["turning_points"]
    table4 = format_table(
        ["setting", "turning point (#ops)", "GPU util", "SM util"],
        [
            [
                s,
                tp[s] if tp[s] is not None else f">{max(r['ngram_ops'] for r in results['rows'])}",
                results["table4"][s]["gpu_utilization"],
                results["table4"][s]["sm_utilization"],
            ]
            for s in SETTINGS
        ],
        title="Table 4: utilization at the latency turning point",
    )
    series = {
        setting: [
            (float(r["ngram_ops"]), float(r["latency_us"]))
            for r in results["rows"]
            if r["setting"] == setting
        ]
        for setting in SETTINGS
    }
    chart = ascii_line_chart(
        series,
        title="Figure 11 (chart): iteration latency vs #Ngram ops",
        y_label="us",
    )
    return curve + "\n\n" + chart + "\n\n" + table4
