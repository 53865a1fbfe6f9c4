"""A mixed fleet prices each GPU's kernels against that GPU's device.

Today the planner builds its capacity estimator and fusion pass from
``workload.spec``, the fleet's first device, so every GPU's kernels carry
the A100's warp slots while the stages they co-run with are per-device
(ROADMAP item 12). The fix moves hetero-fleet plans, so it lands alone;
until then this test fails, and the strict mark turns its passing into a
failure that asks for the mark to go.
"""

import pytest

from repro.core import RapPlanner
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.gpusim import A100_SPEC, H100_SPEC, V100_SPEC
from repro.preprocessing import build_plan


@pytest.mark.xfail(strict=True, reason="kernels priced on the fleet's first device, ROADMAP item 12")
def test_h100_kernels_carry_the_h100_warp_slots():
    graphs, schema = build_plan(1, rows=4096)
    specs = (A100_SPEC, H100_SPEC, V100_SPEC)
    workload = TrainingWorkload(
        model_for_plan(graphs, schema), num_gpus=len(specs), local_batch=4096,
        spec=specs[0], specs=specs,
    )
    plan = RapPlanner(workload).plan(graphs)
    staged = [k for kernels in plan.assignments_per_gpu[1].values() for k in kernels]
    assert staged
    assert {k.warp_slots for k in staged} == {H100_SPEC.total_warp_slots}  # 8448, not 6912
