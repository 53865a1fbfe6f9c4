"""Figure 5: validating the latency-based preprocessing overhead abstraction.

(b) The correlation between a preprocessing kernel's *standalone* latency
    and the *overlapping* latency when co-run with the embedding-lookup
    stage: different operator types follow one consistent trend, which is
    what licenses standalone latency as the uniform cost currency.
(c) The same overlapping latency plotted against the kernel's warp count:
    the curves for different operators misalign, showing warp count is
    *not* a uniform cost metric.
"""

from __future__ import annotations

from ..dlrm import TrainingWorkload, terabyte_model
from ..gpusim import GpuDevice
from ..preprocessing.ops import Logit, Ngram, SigridHash
from .reporting import format_table

__all__ = ["overlap_correlation", "run", "render"]

_SWEEP_ROWS = (4096, 16_384, 65_536, 262_144, 1_048_576)


def _ops():
    return {
        "Ngram": Ngram(inputs=("a", "b", "c"), output="fig5_ng", n=3),
        "SigridHash": SigridHash(inputs=("a",), output="fig5_sh"),
        "Logit": Logit(inputs=("a",), output="fig5_lg"),
    }


def overlap_correlation(
    num_gpus: int = 4,
    local_batch: int = 4096,
    row_sweep=_SWEEP_ROWS,
) -> list[dict]:
    """Standalone vs overlapping latency for three operator types."""
    workload = TrainingWorkload(terabyte_model(), num_gpus=num_gpus, local_batch=local_batch)
    emb = next(s for s in workload.stages_for_gpu(0) if s.name == "emb_lookup_fwd")
    device = GpuDevice(workload.spec)
    rows = []
    for op_name, op in _ops().items():
        for n_rows in row_sweep:
            kernel = op.gpu_kernel(n_rows)
            result = device.simulate_iteration([emb], assignments={0: [kernel]})
            rows.append(
                {
                    "op": op_name,
                    "rows": n_rows,
                    "num_warps": kernel.num_warps,
                    "standalone_us": kernel.duration_us,
                    "overlapping_us": result.total_time_us,
                }
            )
    return rows


def run(num_gpus: int = 4, local_batch: int = 4096) -> dict:
    from scipy.stats import spearmanr

    rows = overlap_correlation(num_gpus, local_batch)
    # Fig. 5b check: pooled across op types, overlapping latency follows
    # standalone latency as one consistent trend (high rank correlation),
    # whereas warp count does not align across operators (Fig. 5c).
    standalone = [r["standalone_us"] for r in rows]
    overlap = [r["overlapping_us"] for r in rows]
    warps = [float(r["num_warps"]) for r in rows]
    corr_latency = float(spearmanr(standalone, overlap).statistic)
    corr_warps = float(spearmanr(warps, overlap).statistic)
    pooled = sorted(rows, key=lambda r: r["standalone_us"])
    overlaps = [r["overlapping_us"] for r in pooled]
    inversions = sum(
        1
        for i in range(len(overlaps) - 1)
        if overlaps[i] > overlaps[i + 1] * 1.05
    )
    return {
        "rows": rows,
        "standalone_order_inversions": inversions,
        "latency_rank_correlation": corr_latency,
        "warp_rank_correlation": corr_warps,
    }


def render(results: dict) -> str:
    return format_table(
        ["op", "rows", "warps", "standalone us", "overlapping us"],
        [
            [r["op"], r["rows"], r["num_warps"], r["standalone_us"], r["overlapping_us"]]
            for r in results["rows"]
        ],
        title=(
            "Figure 5b/5c: standalone vs overlapping latency "
            f"(rank correlation with standalone latency: "
            f"{results['latency_rank_correlation']:.3f})"
        ),
    )
