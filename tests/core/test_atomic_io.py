"""Tests for the shared crash-safe I/O helpers and their cache wiring."""

import json
import os

import pytest

from repro.core import RapPlanner
from repro.core.plan_cache import PlanCache, plan_cache_key
from repro.dlrm import TrainingWorkload, model_for_plan
from repro.ioutil import advisory_lock, atomic_write_json, atomic_write_text
from repro.preprocessing import build_plan


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_residue(self, tmp_path):
        atomic_write_text(tmp_path / "a.json", "{}")
        atomic_write_text(tmp_path / "b.json", "{}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_failed_write_preserves_original(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "original")

        def boom(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(target, "replacement")
        # The original bytes survive and no temp file is left behind.
        assert target.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_writes_chunks_in_order(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, (part for part in ("a", "", "bc", "d")))
        assert target.read_text() == "abcd"

    def test_raising_chunk_iterator_preserves_original(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "original")

        def chunks():
            yield "partial "
            yield "content"
            raise RuntimeError("encoder failed")

        with pytest.raises(RuntimeError, match="encoder failed"):
            atomic_write_text(target, chunks())
        assert target.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_json_helper_is_canonical(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(target, {"b": 1, "a": 2})
        data = json.loads(target.read_text())
        assert data == {"a": 2, "b": 1}
        # sort_keys makes the byte representation deterministic.
        assert target.read_text().index('"a"') < target.read_text().index('"b"')


class TestAdvisoryLock:
    def test_acquires_when_free(self, tmp_path):
        with advisory_lock(tmp_path / ".lock") as acquired:
            assert acquired is True

    def test_contention_yields_false(self, tmp_path):
        lock = tmp_path / ".lock"
        with advisory_lock(lock) as first:
            assert first is True
            with advisory_lock(lock) as second:
                assert second is False

    def test_released_after_exit(self, tmp_path):
        lock = tmp_path / ".lock"
        with advisory_lock(lock):
            pass
        with advisory_lock(lock) as again:
            assert again is True


@pytest.fixture(scope="module")
def plan_setting():
    graphs, schema = build_plan(0, rows=256)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=256)
    return graphs, workload


class TestCacheCrashSafety:
    def test_plan_cache_put_is_atomic(self, tmp_path, plan_setting):
        graphs, workload = plan_setting
        cache = PlanCache(tmp_path)
        planner = RapPlanner(workload, cache=cache)
        planner.plan(graphs)
        entries = list(tmp_path.glob("*.plan.json"))
        assert len(entries) == 1
        json.loads(entries[0].read_text())  # complete, parseable artifact
        assert not list(tmp_path.glob("*.tmp*"))

    def test_plan_cache_degrades_under_lock_contention(self, tmp_path, plan_setting):
        graphs, workload = plan_setting
        cache = PlanCache(tmp_path)
        planner = RapPlanner(workload, cache=cache)
        with advisory_lock(tmp_path / ".lock") as held:
            assert held
            plan = planner.plan(graphs)  # disk store silently skipped
        assert plan is not None
        assert not list(tmp_path.glob("*.plan.json"))
        # The memory tier still serves the plan.
        key = planner._cache_key(graphs)
        assert cache.get(key, workload, graphs) is not None


def test_cache_directory_holds_only_plan_entries(tmp_path, capsys):
    """The CLI and the service leave plan entries and a lock file, nothing else."""
    from repro.cli import main
    from repro.service import PreprocessingService, TenantSpec

    cache_dir = tmp_path / "cache"
    argv = ["plan", "--plan", "0", "--gpus", "2", "--batch", "512",
            "--plan-cache", str(cache_dir)]
    assert main(argv) == 0
    capsys.readouterr()
    service = PreprocessingService(
        tmp_path / "svc", num_gpus=2, telemetry=False, cache_dir=cache_dir
    )
    service.submit(TenantSpec(name="alice", plan_id=0, local_batch=512, num_iterations=2))
    service.run()
    names = sorted(p.relative_to(cache_dir).as_posix() for p in cache_dir.rglob("*"))
    assert ".lock" in names
    assert any(name.endswith(".plan.json") for name in names)
    assert all(name.endswith(".plan.json") or name == ".lock" for name in names), names


def test_cache_key_stable_under_lock_file(tmp_path, plan_setting):
    """The .lock file must never be mistaken for a cache entry."""
    graphs, workload = plan_setting
    cache = PlanCache(tmp_path)
    planner = RapPlanner(workload, cache=cache)
    plan = planner.plan(graphs)
    key = plan_cache_key(
        workload, graphs, "rap", True, True, None, None, planner.solver
    )
    assert cache.get(key, workload, graphs) is not None
    assert plan is not None
