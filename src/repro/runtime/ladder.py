"""The graceful-degradation ladder.

Every fault recovery walks the same ordered ladder, from the plan's
optimal placement down to the host:

1. ``co_run`` -- the searched placement; in-place retry with backoff.
2. ``shard_retry`` -- re-shard / de-fuse the kernel so smaller pieces
   co-run within the stage's leftover (a smaller footprint sidesteps OOM
   and repeated failures). An overrun skips this rung: a placed kernel is
   single-wave, so no split of it runs shorter.
3. ``trailing`` -- demote to exposed work after the training stages; the
   iteration absorbs the latency but keeps its GPU placement.
4. ``sequential`` -- run standalone with the device otherwise idle (no
   co-running at all), the safest on-GPU regime.
5. ``cpu_fallback`` -- evict to the host CPU worker pool through the
   hybrid pipeline; the GPU plan no longer carries the kernel at all.

Each demotion is recorded as a :class:`LadderTransition` so a
:class:`repro.runtime.report.ResilienceReport` can reconstruct exactly how
an iteration survived.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CO_RUN",
    "SHARD_RETRY",
    "TRAILING",
    "SEQUENTIAL",
    "CPU_FALLBACK",
    "LADDER",
    "LadderTransition",
]

CO_RUN = "co_run"
SHARD_RETRY = "shard_retry"
TRAILING = "trailing"
SEQUENTIAL = "sequential"
CPU_FALLBACK = "cpu_fallback"

#: Rungs in demotion order; recovery never climbs back up mid-iteration.
LADDER: tuple[str, ...] = (CO_RUN, SHARD_RETRY, TRAILING, SEQUENTIAL, CPU_FALLBACK)


@dataclass(frozen=True)
class LadderTransition:
    """One demotion (or recovery) step taken for one kernel."""

    iteration: int
    gpu: int
    kernel: str
    from_rung: str
    to_rung: str
    reason: str

    def __post_init__(self) -> None:
        for rung in (self.from_rung, self.to_rung):
            if rung not in LADDER:
                raise ValueError(f"unknown ladder rung {rung!r}; expected one of {LADDER}")

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "gpu": self.gpu,
            "kernel": self.kernel,
            "from_rung": self.from_rung,
            "to_rung": self.to_rung,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LadderTransition":
        return cls(**data)
