"""The planner's replan memo: exact hits, a complete key, a fixed bound.

A repeated watchdog replan returns the plan object of the earlier replan
with the same inputs instead of searching. These tests pin the three
properties that make that safe: every hit equals what a fresh planner
searches for the same request, changing any one key input forces a
search, and the memo stays within :data:`REPLAN_MEMO_SIZE`.
"""

import dataclasses

import pytest

from repro.core import RapPlanner, drift_graph_set
from repro.core.mapping import GraphMapping
from repro.core.plan_cache import graph_set_fingerprint, graph_set_structure_fingerprint
from repro.core.planner import REPLAN_MEMO_SIZE
from repro.core.serialization import plan_to_json
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.preprocessing.graph import DENSE_CONSUMER, FeatureGraph, GraphSet
from repro.runtime import FaultInjector, FaultSpec, FaultTolerantRuntime
from repro.telemetry import CalibratedPredictor, CalibrationSample, ResidualModel

BATCH = 1024
#: Every non-terminal fault kind; plan_drift moves the live graph set.
FAULT_MIX = (
    ("kernel_failure", 0.2),
    ("latency_overrun", 0.2),
    ("fused_oom", 0.1),
    ("cpu_pool_crash", 0.05),
    ("plan_drift", 0.1),
)


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(1, rows=BATCH)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=BATCH)
    return graphs, workload


class SearchCounter:
    """Counts the planner's searches (one per replan the memo missed)."""

    def __init__(self, planner, monkeypatch):
        self.calls = 0
        search = planner._search

        def counted(*args, **kwargs):
            self.calls += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(planner, "_search", counted)

    def searched(self, replan) -> bool:
        before = self.calls
        replan()
        return self.calls > before


def moved_placements(plan) -> GraphMapping:
    """``plan``'s mapping with its first graph's rows moved to another GPU."""
    placements = {k: list(v) for k, v in plan.mapping.placements.items()}
    name = next(iter(placements))
    placements[name] = [((gpu + 1) % plan.workload.num_gpus, rows) for gpu, rows in placements[name]]
    return GraphMapping(strategy="rap", num_gpus=plan.workload.num_gpus, placements=placements)


def test_memo_hits_equal_a_fresh_search(setting):
    graphs, workload = setting
    planner = RapPlanner(workload)
    hits = []
    replan = planner.replan

    def recording(graph_set, previous=None, initial_mapping=None):
        before = planner.stats.memo_hits
        plan = replan(graph_set, previous=previous, initial_mapping=initial_mapping)
        if planner.stats.memo_hits > before:
            hits.append((graph_set, previous, plan))
        return plan

    planner.replan = recording
    specs = [FaultSpec(kind, rate) for kind, rate in FAULT_MIX]
    runtime = FaultTolerantRuntime(planner, graphs, injector=FaultInjector(specs, seed=0))
    runtime.run(120)

    drift_hits = [h for h in hits if graph_set_fingerprint(h[0]) != graph_set_fingerprint(graphs)]
    assert len(hits) >= 10 and drift_hits
    for graph_set, previous, plan in hits:
        fresh = RapPlanner(workload).replan(graph_set, previous=previous)
        assert plan_to_json(plan) == plan_to_json(fresh)


def test_repeated_replan_returns_the_stored_plan(setting, monkeypatch):
    graphs, workload = setting
    planner = RapPlanner(workload)
    previous = planner.plan(graphs)
    drifted = drift_graph_set(graphs, 1.3)
    counter = SearchCounter(planner, monkeypatch)
    first = planner.replan(drifted, previous=previous)
    assert counter.calls == 1
    # Content, not identity: an equal graph set built anew is the same key.
    again = planner.replan(drift_graph_set(graphs, 1.3), previous=previous)
    assert again is first
    assert counter.calls == 1 and planner.stats.memo_hits == 1


class TestKeyCompleteness:
    """Changing one key input alone forces a search."""

    @pytest.fixture
    def primed(self, setting, monkeypatch):
        graphs, workload = setting
        planner = RapPlanner(workload)
        previous = planner.plan(graphs)
        drifted = drift_graph_set(graphs, 1.2)
        planner.replan(drifted, previous=previous)
        counter = SearchCounter(planner, monkeypatch)
        assert not counter.searched(lambda: planner.replan(drifted, previous=previous))
        return planner, previous, drifted, counter

    def test_list_lengths(self, setting, primed):
        graphs, _ = setting
        planner, previous, _, counter = primed
        assert counter.searched(
            lambda: planner.replan(drift_graph_set(graphs, 1.25), previous=previous)
        )

    def test_previous_placements(self, primed):
        planner, previous, drifted, counter = primed
        moved = dataclasses.replace(
            previous,
            mapping_eval=dataclasses.replace(previous.mapping_eval, mapping=moved_placements(previous)),
        )
        assert counter.searched(lambda: planner.replan(drifted, previous=moved))

    def test_previous_structure(self, primed):
        planner, previous, drifted, counter = primed
        first, *rest = previous.graph_set.graphs
        consumer = "t_other" if first.consumer == DENSE_CONSUMER else DENSE_CONSUMER
        changed = FeatureGraph(
            name=first.name, ops=first.ops, consumer=consumer,
            avg_list_length=first.avg_list_length,
        )
        restructured = dataclasses.replace(
            previous, graph_set=GraphSet([changed, *rest], rows=previous.graph_set.rows)
        )
        assert counter.searched(lambda: planner.replan(drifted, previous=restructured))

    def test_set_predictor_clears_the_memo(self, primed):
        planner, previous, drifted, counter = primed
        planner.set_predictor(planner.cost_model.predictor)
        assert counter.searched(lambda: planner.replan(drifted, previous=previous))

    def test_moved_calibration_corrections(self, primed):
        planner, previous, drifted, counter = primed
        residual = ResidualModel(min_samples=1)
        planner.set_predictor(CalibratedPredictor(None, residual))
        assert counter.searched(lambda: planner.replan(drifted, previous=previous))
        assert not counter.searched(lambda: planner.replan(drifted, previous=previous))
        tag = drifted.graphs[0].ops[0].op_name  # an op type the plan places
        residual.record(CalibrationSample(tag, predicted_us=10.0, observed_us=13.0))
        assert counter.searched(lambda: planner.replan(drifted, previous=previous))


def test_memo_is_bounded_and_evicts_least_recent(setting, monkeypatch):
    graphs, workload = setting
    planner = RapPlanner(workload)
    previous = planner.plan(graphs)
    scales = [1.0 + 0.05 * i for i in range(1, REPLAN_MEMO_SIZE + 4)]
    for scale in scales:
        planner.replan(drift_graph_set(graphs, scale), previous=previous)
        assert len(planner._replan_memo) <= REPLAN_MEMO_SIZE
    assert len(planner._replan_memo) == REPLAN_MEMO_SIZE
    counter = SearchCounter(planner, monkeypatch)
    # The most recent entries hit; the oldest were evicted.
    assert not counter.searched(
        lambda: planner.replan(drift_graph_set(graphs, scales[-REPLAN_MEMO_SIZE]), previous=previous)
    )
    assert counter.searched(lambda: planner.replan(drift_graph_set(graphs, scales[0]), previous=previous))


def test_initial_mapping_bypasses_the_memo(setting, monkeypatch):
    graphs, workload = setting
    planner = RapPlanner(workload)
    previous = planner.plan(graphs)
    counter = SearchCounter(planner, monkeypatch)
    for _ in range(2):
        assert counter.searched(
            lambda: planner.replan(graphs, previous=previous, initial_mapping=previous.mapping)
        )
    assert not planner._replan_memo and planner.stats.memo_hits == 0


class TestGraphSetDigests:
    """The memoized digests see every change to a graph set."""

    def test_list_length_change_is_a_new_key(self, setting):
        graphs, _ = setting
        graph_set = drift_graph_set(graphs, 1.0)
        before = graph_set_fingerprint(graph_set)
        assert graph_set_fingerprint(graph_set) == before
        graph_set.graphs[0].avg_list_length *= 2
        assert graph_set_fingerprint(graph_set) != before
        graph_set.graphs[0].avg_list_length /= 2
        assert graph_set_fingerprint(graph_set) == before

    def test_added_graph_is_a_new_key(self, setting):
        graphs, _ = setting
        graph_set = GraphSet(graphs.graphs[:-1], rows=graphs.rows)
        content = graph_set_fingerprint(graph_set)
        structure = graph_set_structure_fingerprint(graph_set)
        graph_set.graphs.append(graphs.graphs[-1])
        assert graph_set_fingerprint(graph_set) == graph_set_fingerprint(graphs) != content
        assert graph_set_structure_fingerprint(graph_set) != structure

    def test_structure_ignores_list_lengths(self, setting):
        graphs, _ = setting
        drifted = drift_graph_set(graphs, 1.7)
        assert graph_set_structure_fingerprint(drifted) == graph_set_structure_fingerprint(graphs)
        assert graph_set_fingerprint(drifted) != graph_set_fingerprint(graphs)
