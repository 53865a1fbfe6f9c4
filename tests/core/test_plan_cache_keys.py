"""Pinned plan-cache keys: the digests every ``--plan-cache`` directory
and every invariant-tier entry is addressed by.

A key that moves without a :data:`PLANNER_CODE_VERSION` bump silently
turns every stored entry into a miss, so both keys are pinned for the
Table-3 plans at 4 GPUs, an isomorphic renamed twin and a heterogeneous
fleet.
"""

import pytest

from repro.core.plan_cache import invariant_plan_key
from repro.core.planner import RapPlanner
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.gpusim import A100_SPEC, H100_SPEC
from repro.preprocessing import build_plan
from repro.service import renamed_model

#: name -> (plan_cache_key, invariant_plan_key)
PINNED = {
    "plan0": (
        "5af892da266b0f1b7f96b07cad94c59e9223cbd2493cdd5776122d2e572357e5",
        "3f5183965ca7f86befe7541acf098eeb2ee848964dc13998b7a533a2cb680f82",
    ),
    "plan1": (
        "b253f7c8710597186750e1c6a8493e96649a108ff53948ebdc34af86b537b071",
        "ad53ebf577e5ef89a335f6b7b442a602a225934a47b50599b615fadeef2f40e2",
    ),
    "plan2": (
        "29116d92928a2dd00e503f4aae9cae8a54d2ae98274e8bef85c2df88c5ddaae6",
        "2c350a8384de7a46bab2ddecaf7287d930fa8c4dc24a46ca66dd9ea3b4a75d2e",
    ),
    "plan3": (
        "1202c2c3b94f5a408433000c482c68e21d0249ab7ea525c52a6f78aa09b54742",
        "af4bb461a879b4f9e8deea1749bf821f72dfedcaee7358a65e228f5332e91669",
    ),
    "plan1-2gpu": (
        "5ed47e243c3cd47dc3821a24ae404f30305d8c884a3a001337cdfffe26af15b7",
        "d9bad5347c60e443afb2a6614b966541af9712c18c4b21e9fceff4f5cf3edee7",
    ),
    "plan1-2gpu-twin": (
        "2cdddc1477c5d89021e6af358e1a2c183295376ecd0239d177ae1d5aa0acc6aa",
        "d9bad5347c60e443afb2a6614b966541af9712c18c4b21e9fceff4f5cf3edee7",
    ),
    "plan1-2gpu-a100-h100": (
        "0b0d4061b2c65d89bb4d0c095381a7d5faedfe9f2478524decb635c9b3bdfdb2",
        "98f9c848f5f5f2c148a5a862ac8036d50c29ce798100e1d9e7b659bb361483cb",
    ),
}


def _request(name: str):
    """``(workload, graphs)`` of the pinned request ``name``."""
    if name.startswith("plan1-2gpu"):
        graphs, schema = build_plan(1, rows=1024)
        config = model_for_plan(graphs, schema)
        specs = None
        if name.endswith("-twin"):
            graphs, config = renamed_model(graphs, config, "twin")
        elif name.endswith("-a100-h100"):
            specs = (A100_SPEC, H100_SPEC)
        return TrainingWorkload(config, num_gpus=2, local_batch=1024, specs=specs), graphs
    graphs, schema = build_plan(int(name.removeprefix("plan")), rows=4096)
    config = model_for_plan(graphs, schema)
    return TrainingWorkload(config, num_gpus=4, local_batch=4096), graphs


@pytest.mark.parametrize("name", sorted(PINNED))
def test_keys_are_pinned(name):
    workload, graphs = _request(name)
    planner = RapPlanner(workload)
    invariant = invariant_plan_key(
        workload,
        graphs,
        planner.mapping_strategy,
        planner.fusion_enabled,
        planner.interleaving_enabled,
        planner.solver,
        predictor_fingerprint=planner._predictor_fingerprint(),
    )
    assert (planner._cache_key(graphs), invariant) == PINNED[name]
