"""Exact-output pin for cold plans.

``fixtures/plan_bytes_digests.json`` holds the SHA-256 of
``plan_to_json(plan, indent=None)`` for Table-3 plans 0-3 and random plans
0-9 at batch 4096 on 2, 4 and 8 GPUs, fused, plus unfused Table-3 plan 3 on
4 GPUs. The digests were captured before pricing, the local fusion search,
fitting and the data-preparation estimate were made cheaper, so any
change to what a plan holds -- a kernel's name, price, demand or order, a
schedule, a data-preparation float -- fails here.

Regenerate (only when a plan is meant to change) with
``PYTHONPATH=src python tests/core/test_plan_bytes_pinned.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import RapPlanner
from repro.core.serialization import plan_to_json
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.preprocessing.random_plans import RandomPlanConfig, generate_random_plan

FIXTURE = Path(__file__).parent.parent / "fixtures" / "plan_bytes_digests.json"
BATCH = 4096

CASES = [
    f"{entry}@{gpus}"
    for entry in [f"table3-{p}" for p in range(4)] + [f"random-{s}" for s in range(10)]
    for gpus in (2, 4, 8)
] + ["table3-3@4-unfused"]


def plan_digest(case: str) -> str:
    name, _, setting = case.partition("@")
    gpus, _, unfused = setting.partition("-")
    kind, number = name.split("-")
    if kind == "table3":
        graphs, schema = build_plan(int(number), rows=BATCH)
    else:
        graphs, schema = generate_random_plan(RandomPlanConfig(seed=int(number)), rows=BATCH)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=int(gpus), local_batch=BATCH)
    plan = RapPlanner(workload, fusion_enabled=not unfused).plan(graphs)
    return hashlib.sha256(plan_to_json(plan, indent=None).encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_plan_bytes_are_pinned(case):
    assert plan_digest(case) == json.loads(FIXTURE.read_text())[case]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({case: plan_digest(case) for case in CASES}, indent=2) + "\n")
