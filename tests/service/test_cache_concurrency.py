"""Thread-safety and lock-contention accounting of the shared plan cache.

The service prices concurrent admissions through one shared
:class:`PlanCache`; it must survive a thread hammer without losing
entries or corrupting stats, and a busy advisory lock must degrade to a
*distinct* ``lock_contention`` outcome rather than a miss or an error.
"""

import os
import threading

import pytest

from repro.core import PlanCache, RapPlanner, plan_to_json
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.preprocessing import build_plan
from repro.telemetry.registry import MetricsRegistry

fcntl = pytest.importorskip("fcntl")

THREADS = 8
ROUNDS = 40


def _hammer(worker) -> list:
    """Run ``worker(thread_index)`` on THREADS threads; collect exceptions."""
    errors: list[BaseException] = []

    def wrapped(index: int) -> None:
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced via the list
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestPlanCacheConcurrency:
    def test_text_tier_survives_hammer(self, tmp_path):
        cache = PlanCache(tmp_path)

        def worker(index: int) -> None:
            for round_ in range(ROUNDS):
                key = f"key{(index + round_) % 4}"
                cache.put_text(key, f"payload-{index}-{round_}")
                text = cache.get_text(key)
                assert text is not None and text.startswith("payload-")

        assert _hammer(worker) == []
        assert cache.stats.stores == THREADS * ROUNDS
        # Every surviving entry is one complete payload, never interleaved.
        for key in ("key0", "key1", "key2", "key3"):
            on_disk = (tmp_path / f"{key}.plan.json").read_text()
            assert on_disk.startswith("payload-")

    def test_deserializing_tier_hits_consistently(self, tmp_path):
        graphs, schema = build_plan(0, rows=512)
        workload = TrainingWorkload(
            model_for_plan(graphs, schema), num_gpus=2, local_batch=512
        )
        cache = PlanCache(tmp_path)
        planner = RapPlanner(workload, cache=cache)
        plan = planner.plan(graphs)
        key = planner._cache_key(graphs)
        base_hits = cache.stats.hits
        expected = plan_to_json(plan)

        def worker(index: int) -> None:
            for _ in range(ROUNDS):
                warm = cache.get(key, workload, graphs)
                assert warm is not None
                assert plan_to_json(warm) == expected

        assert _hammer(worker) == []
        assert cache.stats.hits == base_hits + THREADS * ROUNDS
        assert cache.stats.lookups == cache.stats.hits + cache.stats.misses

    def test_busy_lock_degrades_to_contention_not_miss(self, tmp_path):
        registry = MetricsRegistry()
        cache = PlanCache(tmp_path)
        cache.bind_metrics(registry, cache="plan")
        fd = os.open(tmp_path / ".lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            cache.put_text("contended", "payload")
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        assert cache.stats.lock_contention == 1
        assert cache.stats.misses == 0
        assert cache.stats.stores == 1
        # The memory tier still serves; the disk tier was skipped.
        assert cache.get_text("contended") == "payload"
        assert not (tmp_path / "contended.plan.json").exists()
        snapshot = registry.snapshot()
        series = snapshot["rap_cache_lock_contention_total"]["series"]
        assert [(s["labels"], s["value"]) for s in series] == [
            ({"cache": "plan", "tier": "disk"}, 1.0)
        ]
        # With the lock free again, the same store persists.
        cache.put_text("contended", "payload")
        assert (tmp_path / "contended.plan.json").read_text() == "payload"
        assert cache.stats.lock_contention == 1


class TestCliSurface:
    def test_cache_stats_line_reports_contention(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        argv = ["plan", "--plan", "0", "--gpus", "2", "--batch", "1024",
                "--plan-cache", str(cache_dir)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 lock-contended" in out
