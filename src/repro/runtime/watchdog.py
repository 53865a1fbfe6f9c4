"""Latency watchdog: decide when a plan is stale enough to replan.

The plan search predicts the exposed preprocessing latency of its own
placement; the runtime measures what actually happened. When the measured
exposure persistently diverges from the prediction -- drifted inputs
mis-sizing kernels against stage capacity (§10) -- or faults arrive faster
than recovery can amortize, the watchdog asks for plan regeneration.

The trigger is *edge*-triggered with a windowed signal: it fires once when
the breach condition crosses the threshold and re-arms only after the
signal returns below it (or after :meth:`reset` following a replan), so a
sustained breach produces exactly one regeneration rather than one per
iteration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["WatchdogDecision", "LatencyWatchdog"]

#: Iterations the watchdog averages its error and fault signals over.
WINDOW = 4


@dataclass(frozen=True)
class WatchdogDecision:
    """Outcome of one watchdog observation."""

    replan: bool
    error: float
    fault_rate: float
    reason: str = ""


@dataclass
class LatencyWatchdog:
    """Windowed, edge-triggered staleness detector for active plans.

    ``error_threshold`` is the tolerated mean relative error between
    predicted and measured exposed latency over the last ``WINDOW``
    iterations; ``fault_rate_threshold`` is the tolerated mean number of
    faults per iteration over the same window.
    """

    error_threshold: float = 0.5
    fault_rate_threshold: float = 2.0
    _errors: deque = field(default_factory=deque, repr=False)
    _faults: deque = field(default_factory=deque, repr=False)
    _armed: bool = field(default=True, repr=False)
    _suppressed: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.error_threshold <= 0:
            raise ValueError("error_threshold must be positive")
        if self.fault_rate_threshold <= 0:
            raise ValueError("fault_rate_threshold must be positive")

    # ------------------------------------------------------------------

    def observe(
        self,
        predicted_exposed_us: float,
        measured_exposed_us: float,
        num_faults: int = 0,
    ) -> WatchdogDecision:
        """Feed one iteration's outcome; decide whether to replan."""
        baseline = max(predicted_exposed_us, 1.0)
        error = abs(measured_exposed_us - predicted_exposed_us) / baseline
        self._errors.append(error)
        self._faults.append(num_faults)
        while len(self._errors) > WINDOW:
            self._errors.popleft()
        while len(self._faults) > WINDOW:
            self._faults.popleft()

        mean_error = sum(self._errors) / len(self._errors)
        fault_rate = sum(self._faults) / len(self._faults)
        reasons = []
        if mean_error > self.error_threshold:
            reasons.append(
                f"exposed-latency error {mean_error:.2f} > {self.error_threshold:.2f}"
            )
        if fault_rate > self.fault_rate_threshold:
            reasons.append(
                f"fault rate {fault_rate:.2f}/iter > {self.fault_rate_threshold:.2f}"
            )
        breached = bool(reasons)
        fire = breached and self._armed and not self._suppressed
        if fire:
            self._armed = False
        elif not breached:
            self._armed = True
        return WatchdogDecision(
            replan=fire,
            error=mean_error,
            fault_rate=fault_rate,
            reason="; ".join(reasons),
        )

    def reset(self) -> None:
        """Clear the window and re-arm (call after regenerating the plan)."""
        self._errors.clear()
        self._faults.clear()
        self._armed = True

    # ------------------------------------------------------------------
    # Suppression (shadow-promotion probation, DESIGN.md §15)

    @property
    def suppressed(self) -> bool:
        return self._suppressed

    def suppress(self) -> None:
        """Stop firing while still feeding the window.

        The shadow promotion loop suppresses the watchdog during a
        probation window so the exposure trigger cannot race the
        probation monitor's own rollback decision; a breach while
        suppressed does not consume the armed edge, so a *sustained*
        breach still fires on the first observation after
        :meth:`unsuppress`.
        """
        self._suppressed = True

    def unsuppress(self) -> None:
        """Resume firing (call when probation commits or rolls back)."""
        self._suppressed = False

    # ------------------------------------------------------------------
    # Checkpointing

    def state_dict(self) -> dict:
        """The mutable window state (thresholds live in the constructor).

        ``suppressed`` rides in the snapshot only while set, keeping
        legacy checkpoints byte-stable.
        """
        state = {
            "errors": list(self._errors),
            "faults": list(self._faults),
            "armed": self._armed,
        }
        if self._suppressed:
            state["suppressed"] = True
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this watchdog."""
        self._errors = deque(float(e) for e in state.get("errors", ()))
        self._faults = deque(int(f) for f in state.get("faults", ()))
        self._armed = bool(state.get("armed", True))
        self._suppressed = bool(state.get("suppressed", False))
