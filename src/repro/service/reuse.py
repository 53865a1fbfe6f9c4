"""Cross-tenant plan reuse through a tenant-invariant index.

Two tenants that submit *isomorphic* preprocessing workloads -- identical
op pipelines, list lengths, batch shape, and fleet, differing only in
the names of graphs, columns, and embedding tables -- deserve one plan
search, not two. This module shares plans, not their text:

- :func:`canonicalize_plan` renames a tenant's plan into canonical names
  (``g0/g1/...`` graphs, ``c0/c1/...`` columns) using
  :func:`repro.core.plan_cache.canonical_name_maps`, so isomorphic
  workloads produce the same canonical kernels and placements.
- :func:`specialize_plan` inverts the target tenant's own canonical maps
  to rename a canonical plan back into *its* names; the result
  serializes to exactly the bytes a search under those names would.
- :class:`SharedPlanIndex` stores canonical plans in the ordinary
  :class:`~repro.core.plan_cache.PlanCache` under the salted
  :func:`~repro.core.plan_cache.invariant_plan_key`, so the invariant
  tier shares the cache's thread safety, disk persistence, and stats.

:func:`renamed_model` is the inverse convenience: it builds a renamed
(but isomorphic) copy of a graph set *and* its DLRM config with a
uniform tenant prefix. Renaming the config's tables alongside the
graphs is load-bearing: rebuilding the model from the schema instead
(``model_for_plan``) would silently assign renamed features the generic
generated-table hash size and break isomorphism.
"""

from __future__ import annotations

import dataclasses

from ..core.plan_cache import PlanCache, canonical_name_maps
from ..core.planner import RapPlan
from ..dlrm.model import DLRMConfig
from ..dlrm.training import TrainingWorkload
from ..gpusim.kernel import KernelDesc
from ..preprocessing.graph import DENSE_CONSUMER, FeatureGraph, GraphSet

__all__ = [
    "renamed_model",
    "canonicalize_plan",
    "specialize_plan",
    "SharedPlanIndex",
]


def renamed_model(
    graph_set: GraphSet, config: DLRMConfig, tag: str
) -> tuple[GraphSet, DLRMConfig]:
    """An isomorphic copy of ``(graph_set, config)`` under a tenant tag.

    Graph names gain a ``{tag}.`` prefix; column names and ``table:*``
    consumers gain a ``.{tag}`` *suffix* -- the data-preparation
    estimator classifies raw columns by their ``dense``/``sparse`` name
    prefix, so a tenant prefix there would silently reclassify every
    dense column and change the plan's H2D cost. The dense consumer is
    structural and keeps its name. Embedding tables are renamed in place
    (sizes untouched), so greedy placement and every stage cost match
    the original bit for bit.
    """
    tag = tag.rstrip(".")

    def col(name: str) -> str:
        return f"{name}.{tag}"

    def consumer(name: str) -> str:
        if name == DENSE_CONSUMER:
            return name
        return f"table:{name.removeprefix('table:')}.{tag}"

    graphs = []
    for graph in graph_set:
        ops = tuple(
            dataclasses.replace(
                op,
                inputs=tuple(col(i) for i in op.inputs),
                output=col(op.output),
            )
            for op in graph.ops
        )
        graphs.append(
            FeatureGraph(
                name=f"{tag}.{graph.name}",
                ops=ops,
                consumer=consumer(graph.consumer),
                avg_list_length=graph.avg_list_length,
            )
        )
    tables = tuple(
        dataclasses.replace(t, name=consumer(t.name)) for t in config.tables
    )
    return (
        GraphSet(graphs, rows=graph_set.rows),
        dataclasses.replace(config, name=f"{tag}.{config.name}", tables=tables),
    )


# ----------------------------------------------------------------------
# Plan renaming


def _rename_kernel_name(name: str, column_map: dict[str, str]) -> str:
    """Map the column identity inside one kernel name.

    Kernel names are ``"<op>:<output_column>"`` with an optional ``#i``
    shard suffix; fused kernels are ``"fused_<tag>_x<N>"`` and carry no
    column identity (their members do, via ``meta``).
    """
    base, sep, shard = name.partition("#")
    if base.startswith("fused_"):
        return name
    op, colon, column = base.partition(":")
    if not colon:
        return name
    renamed = column_map.get(column)
    if renamed is None:
        return name
    return f"{op}:{renamed}{sep}{shard}"


def _renamed(plan: RapPlan, graph_map: dict[str, str], column_map: dict[str, str]) -> RapPlan:
    """``plan`` with every graph and column name mapped: kernel names,
    fused-member names and kernels, and mapping placements.

    Meta keys keep their order, so the renamed plan serializes to the
    bytes :func:`~repro.core.serialization.plan_to_json` gives a plan
    searched under the new names.
    """

    def kernel(k: KernelDesc) -> KernelDesc:
        meta = k.meta
        if "fused" in meta or "member_kernels" in meta:
            meta = dict(meta)
            if "fused" in meta:
                meta["fused"] = [_rename_kernel_name(m, column_map) for m in meta["fused"]]
            if "member_kernels" in meta:
                meta["member_kernels"] = tuple(kernel(m) for m in meta["member_kernels"])
        return dataclasses.replace(
            k, name=_rename_kernel_name(k.name, column_map), meta=meta
        )

    mapping = plan.mapping
    placements = {graph_map.get(n, n): list(p) for n, p in mapping.placements.items()}
    return dataclasses.replace(
        plan,
        mapping_eval=dataclasses.replace(
            plan.mapping_eval,
            mapping=dataclasses.replace(mapping, placements=placements),
        ),
        assignments_per_gpu=[
            {stage: [kernel(k) for k in kernels] for stage, kernels in per_gpu.items()}
            for per_gpu in plan.assignments_per_gpu
        ],
        trailing_per_gpu=[[kernel(k) for k in kernels] for kernels in plan.trailing_per_gpu],
    )


def canonicalize_plan(plan: RapPlan, graph_set: GraphSet) -> RapPlan:
    """``plan`` renamed into ``graph_set``'s canonical names."""
    graph_map, column_map, _ = canonical_name_maps(graph_set)
    return _renamed(plan, graph_map, column_map)


def specialize_plan(
    canonical: RapPlan, workload: TrainingWorkload, graph_set: GraphSet
) -> RapPlan:
    """A canonical plan bound to ``workload`` and ``graph_set`` and renamed
    into ``graph_set``'s own names.

    Inverts :func:`canonical_name_maps` for the *target* tenant; since
    isomorphic graph sets share one canonical form, the inverse maps of
    any isomorphic tenant line up entry for entry.
    """
    graph_map, column_map, _ = canonical_name_maps(graph_set)
    return _renamed(
        dataclasses.replace(canonical, workload=workload, graph_set=graph_set),
        {v: k for k, v in graph_map.items()},
        {v: k for k, v in column_map.items()},
    )


class SharedPlanIndex:
    """Tenant-invariant plan sharing layered on the plan cache.

    Entries live in the same :class:`PlanCache` as exact-key plans (same
    memory/disk tiers, same lock), just under the salted invariant key
    and in canonical names. ``lookup`` specializes a hit into the asking
    tenant's workload, graph set and names.
    """

    def __init__(self, cache: PlanCache) -> None:
        self.cache = cache
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def store(self, invariant_key: str, plan: RapPlan, graph_set: GraphSet) -> None:
        self.stores += 1
        self.cache.put(invariant_key, canonicalize_plan(plan, graph_set))

    def lookup(
        self,
        invariant_key: str,
        workload: TrainingWorkload,
        graph_set: GraphSet,
    ) -> RapPlan | None:
        """The plan for an isomorphic hit, in this tenant's names, else None."""
        found = self.cache._load(invariant_key, workload, graph_set)
        if found is None:
            self.misses += 1
            return None
        self.hits += 1
        return specialize_plan(found[0], workload, graph_set)
