"""A torn exact-key cache entry falls back to the tenant-invariant index."""

from repro.core import plan_to_json
from repro.service import PreprocessingService

from .test_service import _light


def test_torn_exact_entry_falls_back_to_invariant_index(tmp_path, solve_calls):
    first = PreprocessingService(tmp_path / "first", num_gpus=2, telemetry=False)
    first.submit(_light("alice", num_iterations=2))
    first.run()
    job = first.jobs[0]
    cache_dir = tmp_path / "first" / "cache"
    exact = cache_dir / f"{job.runtime.planner._cache_key(job.graphs)}.plan.json"
    assert exact.exists()
    # Tear only alice's exact entry; her canonical invariant entry stays.
    assert len(list(cache_dir.glob("*.plan.json"))) > 1
    text = exact.read_text()
    exact.write_text(text[: len(text) // 2])
    solve_calls.clear()

    second = PreprocessingService(
        tmp_path / "second", num_gpus=2, telemetry=False, cache_dir=cache_dir
    )
    second.submit(_light("alice", num_iterations=2))
    summary = second.run()
    assert summary.job("alice")["plan_source"] == "warm-invariant"
    assert summary.reuse["hits"] == 1
    assert len(solve_calls) == 0
    assert plan_to_json(second.jobs[0].runtime.plan) == plan_to_json(job.runtime.plan)
