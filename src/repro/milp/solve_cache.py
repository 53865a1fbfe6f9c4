"""Content-addressed caching of MILP solves.

The planner re-solves structurally identical fusion MILPs constantly: a
watchdog-triggered replan rebuilds the same per-GPU instances, a drifted
graph set changes kernel latencies but not the dependency structure the
MILP encodes, and the mapping hill-climb re-prices the same GPU groupings
many times per search. Solving is the expensive part; the problem itself
is cheap to fingerprint.

A solve is cached under a SHA-256 of the *canonical array form* of the
problem (objective, CSR constraint matrices, bounds, integrality mask), the
solver's limits and tolerances, and the warm-start vector. Anything that
could change the returned solution changes the key, so a cache hit is
bit-identical to re-solving. Entries can persist to a directory next to
plan artifacts so a fresh process replanning the same workload starts
warm.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..ioutil import advisory_lock, atomic_write_text
from .model import MilpProblem

__all__ = ["SolveCacheStats", "SolveCache", "problem_fingerprint"]

#: Bump when the solver's search behaviour changes in a way that can alter
#: returned solutions; persisted entries from older code are then ignored.
#: v2: a root-LP gate plus one HiGHS branch-and-cut call replaced the
#: per-node ``linprog`` search, and the key hashes the CSR matrix form.
SOLVER_CACHE_VERSION = 2


def _update_array(h, label: str, arr, dtype=np.float64) -> None:
    h.update(label.encode())
    if arr is None:
        h.update(b"<none>")
        return
    a = np.ascontiguousarray(np.asarray(arr, dtype=dtype))
    h.update(repr(a.shape).encode())
    h.update(a.tobytes())


def _update_csr(h, label: str, matrix) -> None:
    """Hash a CSR matrix by its shape and canonical (data, indices, indptr)."""
    if matrix is None:
        _update_array(h, label, None)
        return
    h.update(f"{label}{matrix.shape}".encode())
    _update_array(h, "data", matrix.data)
    _update_array(h, "indices", matrix.indices, np.int64)
    _update_array(h, "indptr", matrix.indptr, np.int64)


def problem_fingerprint(
    problem: MilpProblem,
    node_limit: int,
    time_limit_s: float,
    integrality_tol: float,
    gap_tol: float,
    warm_start: np.ndarray | None = None,
) -> str:
    """Canonical content hash of a problem plus everything solve() consults.

    Two calls with equal fingerprints run the identical deterministic
    search, so their solutions are interchangeable.
    """
    arrays = problem.to_arrays()
    h = hashlib.sha256()
    h.update(f"milp-v{SOLVER_CACHE_VERSION}".encode())
    _update_array(h, "c", arrays["c"])
    _update_csr(h, "A_ub", arrays["A_ub"])
    _update_array(h, "b_ub", arrays["b_ub"])
    _update_csr(h, "A_eq", arrays["A_eq"])
    _update_array(h, "b_eq", arrays["b_eq"])
    _update_array(h, "bounds", arrays["bounds"])
    h.update(b"int")
    h.update(np.ascontiguousarray(arrays["integer_mask"]).tobytes())
    h.update(repr((node_limit, time_limit_s, integrality_tol, gap_tol)).encode())
    _update_array(h, "warm", warm_start)
    return h.hexdigest()


@dataclass
class SolveCacheStats:
    """Hit/miss accounting for one cache instance.

    ``disk_hits`` counts the subset of ``hits`` served by the persistent
    tier rather than process memory. ``lock_contention`` counts stores
    that skipped the disk tier because another process held the advisory
    lock -- distinct from a miss; the memory tier still serves.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_hits: int = 0
    lock_contention: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "disk_hits": self.disk_hits,
            "lock_contention": self.lock_contention,
        }


class SolveCache:
    """In-memory (and optionally on-disk) store of finished MILP solves.

    Values are stored as plain JSON payloads rather than live
    :class:`~repro.milp.branch_and_bound.MilpSolution` objects so memory and
    disk entries round-trip through the same representation -- a warm hit
    from either tier rebuilds the identical solution.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: dict[str, dict] = {}
        self.stats = SolveCacheStats()
        self._metrics = None
        # Reentrant for symmetry with PlanCache: concurrent admission
        # threads share one solver cache across per-tenant planners.
        self._tier_lock = threading.RLock()

    def bind_metrics(self, registry, cache: str = "milp") -> None:
        """Mirror hit/miss/store accounting into a telemetry registry."""
        self._metrics = registry
        self._metric_label = cache

    def _count(self, outcome: str, tier: str | None = None) -> None:
        if self._metrics is None:
            return
        labels = {"cache": self._metric_label}
        if tier is not None:
            labels["tier"] = tier
        self._metrics.counter(
            f"rap_cache_{outcome}_total",
            help=f"Cache {outcome} by cache and tier",
            labels=labels,
        ).inc()

    # ------------------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.milp.json"

    def get(self, key: str):
        """Return the cached :class:`MilpSolution` for ``key``, or ``None``."""
        with self._tier_lock:
            tier = "memory"
            payload = self._memory.get(key)
            if payload is None and self.directory is not None:
                path = self._path(key)
                if path.exists():
                    try:
                        payload = json.loads(path.read_text())
                    except (OSError, json.JSONDecodeError):
                        payload = None  # treat a torn write as a miss
                    else:
                        self._memory[key] = payload
                        tier = "disk"
            if payload is None:
                self.stats.misses += 1
                self._count("misses")
                return None
            self.stats.hits += 1
            if tier == "disk":
                self.stats.disk_hits += 1
            self._count("hits", tier)
            return _solution_from_payload(payload)

    def put(self, key: str, solution) -> None:
        payload = _solution_to_payload(solution)
        with self._tier_lock:
            self._memory[key] = payload
            self.stats.stores += 1
            self._count("stores")
            if self.directory is not None:
                # Same crash-safety contract as the plan cache: atomic replace
                # under a non-blocking advisory lock, contention downgrades to
                # a skipped store rather than an error or a torn file.
                try:
                    with advisory_lock(self.directory / ".lock") as acquired:
                        if acquired:
                            atomic_write_text(self._path(key), json.dumps(payload))
                        else:
                            self.stats.lock_contention += 1
                            self._count("lock_contention", "disk")
                except OSError:
                    pass  # persistence is best-effort; memory tier still serves

    def __len__(self) -> int:
        with self._tier_lock:
            return len(self._memory)


def _solution_to_payload(solution) -> dict:
    return {
        "status": solution.status,
        "x": None if solution.x is None else [float(v) for v in solution.x],
        "objective": solution.objective,
        "nodes_explored": solution.nodes_explored,
        "gap": solution.gap,
    }


def _solution_from_payload(payload: dict):
    from .branch_and_bound import MilpSolution

    x = payload["x"]
    return MilpSolution(
        status=payload["status"],
        x=None if x is None else np.asarray(x, dtype=float),
        objective=payload["objective"],
        nodes_explored=payload["nodes_explored"],
        gap=payload["gap"],
    )
