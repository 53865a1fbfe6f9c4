"""Engine-backed functional verification riding along the simulated run."""

import pytest

from repro.core import RapPlanner
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.runtime import (
    DataPathVerifier,
    DataVerificationError,
    FaultTolerantRuntime,
    RunJournal,
)


@pytest.fixture(scope="module")
def setting():
    graphs, schema = build_plan(1, rows=128)
    model = model_for_plan(graphs, schema)
    workload = TrainingWorkload(model, num_gpus=2, local_batch=128)
    return graphs, schema, workload


def test_runtime_periodic_verification(setting, tmp_path):
    graphs, schema, workload = setting
    verifier = DataPathVerifier(schema, every=2, seed=5)
    journal = RunJournal(tmp_path / "journal.jsonl")
    runtime = FaultTolerantRuntime(
        RapPlanner(workload), graphs, journal=journal, verifier=verifier
    )
    runtime.run(5)
    journal.close()
    # Iterations 0, 2, 4 hit the cadence; every check was bit-identical.
    assert [v.iteration for v in verifier.history] == [0, 2, 4]
    assert all(v.ok for v in verifier.history)
    assert all(v.columns_checked > 0 for v in verifier.history)
    records = [r for r in RunJournal.read(tmp_path / "journal.jsonl") if r["type"] == "data_verify"]
    assert len(records) == 3
    assert all(r["ok"] for r in records)


def test_verifier_caches_programs_per_epoch(setting):
    graphs, schema, workload = setting
    verifier = DataPathVerifier(schema, every=1)
    planner = RapPlanner(workload)
    plan = planner.plan(graphs)
    verifier.verify(plan, plan_epoch=0, iteration=0)
    programs = verifier._programs
    verifier.verify(plan, plan_epoch=0, iteration=1)
    assert verifier._programs is programs  # same epoch: reused
    verifier.verify(plan, plan_epoch=1, iteration=2)
    assert verifier._programs is not programs  # replan: re-lowered


def test_strict_mode_raises_on_divergence(setting, monkeypatch):
    graphs, schema, workload = setting
    verifier = DataPathVerifier(schema, every=1)
    plan = RapPlanner(workload).plan(graphs)
    monkeypatch.setattr(
        DataPathVerifier, "_column_matches", staticmethod(lambda name, out, golden: False)
    )
    with pytest.raises(DataVerificationError, match="diverged"):
        verifier.verify(plan, plan_epoch=0, iteration=0)
    # The failed check is still recorded for the journal.
    assert verifier.history and not verifier.history[-1].ok
    assert verifier.history[-1].mismatched
