"""The structured outcome of fault-tolerant plan execution.

A :class:`ResilienceReport` is the runtime's answer to "what did the plan
survive": every injected fault, every retry and its backoff, every
degradation-ladder transition, and every watchdog-triggered replan, plus
per-iteration timing so degradation is visible in the numbers rather than
buried in logs. It serializes to plain dicts so it can ride along a plan
artifact (:func:`repro.core.serialization.plan_to_json`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .elastic import MembershipChange
from .faults import FaultEvent
from .ladder import LadderTransition

__all__ = ["IterationRecord", "ResilienceReport"]


@dataclass(frozen=True)
class IterationRecord:
    """Timing and recovery accounting for one executed iteration."""

    iteration: int
    iteration_us: float
    exposed_us: float
    num_faults: int = 0
    retries: int = 0
    backoff_us: float = 0.0
    recovery_us: float = 0.0
    cpu_fallback_us: float = 0.0
    replanned: bool = False
    #: The plan generation this iteration *started* under. Faults observed
    #: during a replanned iteration are charged to this (old) epoch only,
    #: never to the plan that replaced it mid-window.
    plan_epoch: int = 0

    @property
    def degraded(self) -> bool:
        return self.num_faults > 0 or self.recovery_us > 0 or self.cpu_fallback_us > 0

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "iteration_us": self.iteration_us,
            "exposed_us": self.exposed_us,
            "num_faults": self.num_faults,
            "retries": self.retries,
            "backoff_us": self.backoff_us,
            "recovery_us": self.recovery_us,
            "cpu_fallback_us": self.cpu_fallback_us,
            "replanned": self.replanned,
            "plan_epoch": self.plan_epoch,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IterationRecord":
        data = dict(data)
        data.setdefault("plan_epoch", 0)
        return cls(**data)


@dataclass
class ResilienceReport:
    """Aggregated resilience accounting across a run."""

    iterations: list[IterationRecord] = field(default_factory=list)
    faults: list[FaultEvent] = field(default_factory=list)
    transitions: list[LadderTransition] = field(default_factory=list)
    retries: int = 0
    backoff_total_us: float = 0.0
    replans: int = 0
    membership_changes: list[MembershipChange] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def num_faults(self) -> int:
        return len(self.faults)

    @property
    def degraded_iterations(self) -> int:
        return sum(1 for r in self.iterations if r.degraded)

    @property
    def fault_rate(self) -> float:
        return self.num_faults / self.num_iterations if self.iterations else 0.0

    @property
    def mean_iteration_us(self) -> float:
        if not self.iterations:
            return 0.0
        return sum(r.iteration_us for r in self.iterations) / len(self.iterations)

    @property
    def total_recovery_us(self) -> float:
        return sum(r.recovery_us for r in self.iterations)

    def faults_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.faults:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def faults_by_epoch(self) -> dict[int, int]:
        """Fault counts keyed by the plan epoch each fault was charged to.

        Each fault is attributed to exactly the epoch its iteration
        *started* under (:attr:`IterationRecord.plan_epoch`): a fault that
        triggers a replan mid-window belongs to the plan it hit, not to the
        plan installed in response. Summing the values therefore always
        equals :attr:`num_faults` -- double-counting a replan-window fault
        against both plans was a bug this accounting pins down.
        """
        epoch_of_iteration = {r.iteration: r.plan_epoch for r in self.iterations}
        counts: dict[int, int] = {}
        for event in self.faults:
            epoch = epoch_of_iteration.get(event.iteration, 0)
            counts[epoch] = counts.get(epoch, 0) + 1
        return counts

    def rungs_reached(self) -> dict[str, int]:
        """How many demotions landed on each ladder rung."""
        counts: dict[str, int] = {}
        for t in self.transitions:
            counts[t.to_rung] = counts.get(t.to_rung, 0) + 1
        return counts

    def recovery_path(self, kernel: str, iteration: int | None = None) -> list[str]:
        """The rung sequence one kernel walked (optionally in one iteration)."""
        path: list[str] = []
        for t in self.transitions:
            if t.kernel != kernel:
                continue
            if iteration is not None and t.iteration != iteration:
                continue
            if not path:
                path.append(t.from_rung)
            path.append(t.to_rung)
        return path

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "iterations": [r.to_dict() for r in self.iterations],
            "faults": [f.to_dict() for f in self.faults],
            "transitions": [t.to_dict() for t in self.transitions],
            "retries": self.retries,
            "backoff_total_us": self.backoff_total_us,
            "replans": self.replans,
            "membership_changes": [m.to_dict() for m in self.membership_changes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResilienceReport":
        return cls(
            iterations=[IterationRecord.from_dict(r) for r in data.get("iterations", [])],
            faults=[FaultEvent.from_dict(f) for f in data.get("faults", [])],
            transitions=[LadderTransition.from_dict(t) for t in data.get("transitions", [])],
            retries=int(data.get("retries", 0)),
            backoff_total_us=float(data.get("backoff_total_us", 0.0)),
            replans=int(data.get("replans", 0)),
            membership_changes=[
                MembershipChange.from_dict(m) for m in data.get("membership_changes", [])
            ],
        )

    # ------------------------------------------------------------------

    def summary(self) -> str:
        """One human-readable paragraph for CLI output."""
        lines = [
            f"iterations: {self.num_iterations} "
            f"({self.degraded_iterations} degraded), "
            f"mean iteration {self.mean_iteration_us:.1f} us",
            f"faults: {self.num_faults} ({self.fault_rate:.2f}/iter)"
            + (f" by kind {self.faults_by_kind()}" if self.faults else ""),
            f"retries: {self.retries}, total backoff {self.backoff_total_us:.1f} us, "
            f"total recovery {self.total_recovery_us:.1f} us",
            f"ladder demotions: {self.rungs_reached() or 'none'}",
            f"replans: {self.replans}",
        ]
        if self.membership_changes:
            last = self.membership_changes[-1]
            lines.append(
                f"membership changes: {len(self.membership_changes)} "
                f"(fleet now {last.survivors} GPU{'s' if last.survivors != 1 else ''}, "
                f"{sum(m.moved_bytes for m in self.membership_changes) / 1e6:.1f} MB resharded)"
            )
        return "\n".join(lines)
