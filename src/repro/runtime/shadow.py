"""Shadow planning: guarded plan promotion with automatic rollback.

The drift watchdog and the calibration loop (§10, §13) are *edge*
triggers: when they fire, the runtime swaps plans blind, trusting that a
freshly searched plan is better than the stale one. This module turns
that one-shot replan into a continuous, guarded optimization loop
(DESIGN.md §15): while :class:`~repro.runtime.executor.FaultTolerantRuntime`
executes the live plan, a :class:`ShadowPlanner` keeps a replay window of
recent iteration conditions (uniform drift scale, per-op drift factors,
measured latencies), periodically searches a candidate plan against the
live calibrated costs, and scores the candidate *in gpusim shadow mode*
-- both plans simulated like-for-like under the recorded window
conditions via :meth:`repro.core.RapPlanner.evaluate_scaled` -- without
perturbing the live run.

A candidate is promoted only when its predicted exposed-latency win
clears a guardrail::

    win      = (baseline_exposed - candidate_exposed) / baseline_exposed
    required = promote_margin (+ hysteresis after a rollback)
    promote  = baseline_exposed > 0 and win >= required

The hysteresis band widens the bar after a rollback so a marginal
candidate cannot flap the plan back and forth; a cooldown separates
consecutive promotion attempts.

Promotion is transactional. The runtime seals a pinned *rollback anchor*
checkpoint of the pre-swap state, journals a ``promotion`` record, swaps
plans, and enters **probation**: for ``probation_iters`` iterations the
realized iteration latency is compared against both the pre-promotion
measured baseline and the candidate's own prediction. If the running
mean regresses past ``rollback_threshold`` over either reference, the
plan is rolled back to the anchor automatically; otherwise the promotion
commits. Either way a ``promotion_result`` record closes the
transaction. The drift watchdog is suppressed during probation so the
two replan triggers cannot race.

Every decision here is a pure function of recorded observations, so
promotions and rollbacks replay bit-identically under a fixed seed and
across checkpoint restore (the full state machine rides in
:meth:`ShadowPlanner.state_dict`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "PROBATION_ABORTED",
    "PROBATION_COMMITTED",
    "PROBATION_ROLLED_BACK",
    "PROBATION_OUTCOMES",
    "CandidateVerdict",
    "ShadowConfig",
    "ShadowObservation",
    "ShadowPlanner",
]

#: Probation outcomes recorded in ``promotion_result`` journal records.
PROBATION_COMMITTED = "committed"
PROBATION_ROLLED_BACK = "rolled_back"
PROBATION_ABORTED = "aborted"
PROBATION_OUTCOMES = (PROBATION_COMMITTED, PROBATION_ROLLED_BACK, PROBATION_ABORTED)


@dataclass(frozen=True)
class ShadowConfig:
    """Guardrail and pacing knobs of the shadow promotion loop.

    ``promote_margin`` is the minimum predicted exposed-latency win;
    ``hysteresis`` is added to it after a rollback until a promotion
    commits. ``rollback_threshold`` is the tolerated realized regression
    during the ``probation_iters``-iteration probation window.
    ``eval_every`` paces trigger-free candidate searches (0 = only on
    drift/watchdog triggers); ``window`` is the number of recorded
    iterations a candidate is scored over; ``cooldown_iters`` separates
    a probation outcome from the next candidate evaluation.
    """

    promote_margin: float = 0.10
    hysteresis: float = 0.05
    probation_iters: int = 5
    rollback_threshold: float = 0.10
    eval_every: int = 5
    window: int = 4
    cooldown_iters: int = 5

    def __post_init__(self) -> None:
        if self.promote_margin <= 0:
            raise ValueError("promote_margin must be positive")
        if self.hysteresis < 0:
            raise ValueError("hysteresis must be >= 0")
        if self.probation_iters < 1:
            raise ValueError("probation_iters must be >= 1")
        if self.rollback_threshold <= 0:
            raise ValueError("rollback_threshold must be positive")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.cooldown_iters < 0:
            raise ValueError("cooldown_iters must be >= 0")

    def to_dict(self) -> dict:
        return {
            "promote_margin": self.promote_margin,
            "hysteresis": self.hysteresis,
            "probation_iters": self.probation_iters,
            "rollback_threshold": self.rollback_threshold,
            "eval_every": self.eval_every,
            "window": self.window,
            "cooldown_iters": self.cooldown_iters,
        }


@dataclass(frozen=True)
class ShadowObservation:
    """One live iteration's conditions and outcome, as the window sees it.

    ``scale`` is the runtime's uniform drift relative to the active plan
    and ``drift_factors`` the per-op-type injected drift at this
    iteration -- together they let a candidate be re-simulated under the
    exact regime the live plan was measured in.
    """

    iteration: int
    plan_epoch: int
    scale: float
    drift_factors: dict
    exposed_us: float
    iteration_us: float

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "plan_epoch": self.plan_epoch,
            "scale": self.scale,
            "drift_factors": dict(sorted(self.drift_factors.items())),
            "exposed_us": self.exposed_us,
            "iteration_us": self.iteration_us,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShadowObservation":
        return cls(
            iteration=int(data["iteration"]),
            plan_epoch=int(data["plan_epoch"]),
            scale=float(data["scale"]),
            drift_factors={str(k): float(v) for k, v in data.get("drift_factors", {}).items()},
            exposed_us=float(data["exposed_us"]),
            iteration_us=float(data["iteration_us"]),
        )


@dataclass(frozen=True)
class CandidateVerdict:
    """The guardrail's ruling on one shadow candidate."""

    iteration: int
    reason: str
    baseline_exposed_us: float
    candidate_exposed_us: float
    predicted_win: float
    required_win: float
    promote: bool

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "reason": self.reason,
            "baseline_exposed_us": round(self.baseline_exposed_us, 3),
            "candidate_exposed_us": round(self.candidate_exposed_us, 3),
            "predicted_win": round(self.predicted_win, 6),
            "required_win": round(self.required_win, 6),
            "promote": self.promote,
        }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


@dataclass
class ShadowPlanner:
    """The shadow promotion state machine (idle -> probation -> outcome).

    Owns the replay window, the guardrail arithmetic, the probation
    monitor, and the rollback anchor payload; the runtime owns the plan
    swap itself (:meth:`FaultTolerantRuntime._shadow_step`). Everything
    mutable serializes via :meth:`state_dict` so a resumed run replays
    the identical promotion/rollback trajectory.
    """

    config: ShadowConfig = field(default_factory=ShadowConfig)
    candidates_evaluated: int = 0
    promotions: int = 0
    commits: int = 0
    rollbacks: int = 0
    aborts: int = 0
    suppressed_triggers: int = 0
    pending_trigger: str | None = None
    last_predicted_win: float | None = None
    last_realized_win: float | None = None
    _window: deque = field(default_factory=deque, repr=False)
    _cooldown_until: int = 0
    _post_rollback: bool = False
    _probation: dict | None = None

    # ------------------------------------------------------------------
    # Observation and pacing

    def observe(self, obs: ShadowObservation) -> str | None:
        """Feed one completed live iteration; return the required action.

        Returns ``"rollback"`` when the probation monitor breaches,
        ``"commit"`` when probation completes clean, else ``None``.
        """
        self._window.append(obs)
        while len(self._window) > self.config.window:
            self._window.popleft()
        if self._probation is None:
            return None
        probation = self._probation
        probation["observed"].append(
            {"exposed_us": obs.exposed_us, "iteration_us": obs.iteration_us}
        )
        mean_iter = _mean(o["iteration_us"] for o in probation["observed"])
        limit = 1.0 + self.config.rollback_threshold
        regressed = (
            mean_iter > limit * probation["predicted_iteration_us"]
            or mean_iter > limit * probation["baseline_iteration_us"]
        )
        if regressed:
            return PROBATION_ROLLED_BACK
        if len(probation["observed"]) >= self.config.probation_iters:
            return PROBATION_COMMITTED
        return None

    def note_trigger(self, iteration: int, source: str) -> None:
        """Route a drift/watchdog firing into the guarded loop.

        During probation the trigger is swallowed (the suppression the
        tentpole requires: the two replan paths must not race); otherwise
        it requests a candidate evaluation at this iteration's shadow
        step, ahead of the normal cadence.
        """
        if self._probation is not None:
            self.suppressed_triggers += 1
            return
        if self.pending_trigger is None:
            self.pending_trigger = source

    def window_for_epoch(self, plan_epoch: int) -> list[ShadowObservation]:
        """Window entries measured under the given plan epoch, oldest first."""
        return [o for o in self._window if o.plan_epoch == plan_epoch]

    def window_ready(self, plan_epoch: int) -> bool:
        return len(self.window_for_epoch(plan_epoch)) >= self.config.window

    def wants_candidate(self, iteration: int, plan_epoch: int) -> bool:
        """Should the runtime search and score a candidate this iteration?"""
        if self._probation is not None or iteration < self._cooldown_until:
            return False
        if not self.window_ready(plan_epoch):
            return False
        if self.pending_trigger is not None:
            return True
        every = self.config.eval_every
        return every > 0 and (iteration + 1) % every == 0

    # ------------------------------------------------------------------
    # Guardrail

    @property
    def required_win(self) -> float:
        """The live promotion bar: margin, plus hysteresis after a rollback."""
        extra = self.config.hysteresis if self._post_rollback else 0.0
        return self.config.promote_margin + extra

    def judge(
        self,
        iteration: int,
        baseline_exposed_us: float,
        candidate_exposed_us: float,
        reason: str,
    ) -> CandidateVerdict:
        """Score one candidate against the guardrail; consumes the trigger."""
        self.candidates_evaluated += 1
        self.pending_trigger = None
        required = self.required_win
        baseline_exposed_us = float(baseline_exposed_us)
        candidate_exposed_us = float(candidate_exposed_us)
        if baseline_exposed_us > 0:
            win = (baseline_exposed_us - candidate_exposed_us) / baseline_exposed_us
        else:
            win = 0.0  # nothing exposed: there is nothing to improve
        promote = bool(baseline_exposed_us > 0 and win >= required)
        self.last_predicted_win = win
        return CandidateVerdict(
            iteration=iteration,
            reason=reason,
            baseline_exposed_us=baseline_exposed_us,
            candidate_exposed_us=candidate_exposed_us,
            predicted_win=win,
            required_win=required,
            promote=promote,
        )

    # ------------------------------------------------------------------
    # Probation

    @property
    def in_probation(self) -> bool:
        return self._probation is not None

    @property
    def anchor(self) -> dict | None:
        """The rollback anchor payload of the open probation, if any."""
        return self._probation["anchor"] if self._probation is not None else None

    def begin_probation(
        self,
        iteration: int,
        verdict: CandidateVerdict,
        *,
        predicted_exposed_us: float,
        predicted_iteration_us: float,
        baseline_iteration_us: float,
        from_epoch: int,
        to_epoch: int,
        anchor: dict,
    ) -> None:
        """Enter probation for a just-promoted candidate."""
        if self._probation is not None:
            raise RuntimeError("probation already open; commit or roll back first")
        self.promotions += 1
        self._probation = {
            "start_iteration": iteration,
            "reason": verdict.reason,
            "predicted_win": verdict.predicted_win,
            "required_win": verdict.required_win,
            "baseline_exposed_us": verdict.baseline_exposed_us,
            "baseline_iteration_us": baseline_iteration_us,
            "predicted_exposed_us": predicted_exposed_us,
            "predicted_iteration_us": predicted_iteration_us,
            "from_epoch": from_epoch,
            "to_epoch": to_epoch,
            "anchor": anchor,
            "observed": [],
        }

    def finish_probation(self, outcome: str, iteration: int) -> dict:
        """Close the open probation; returns the ``promotion_result`` payload.

        The caller (the runtime) performs the actual rollback/commit
        side effects; this just settles the state machine: counters, the
        hysteresis flag, the cooldown, and the realized-vs-predicted win.
        """
        if self._probation is None:
            raise RuntimeError("no open probation to finish")
        if outcome not in PROBATION_OUTCOMES:
            raise ValueError(f"unknown probation outcome {outcome!r}")
        probation, self._probation = self._probation, None
        observed = probation["observed"]
        realized_exposed = _mean(o["exposed_us"] for o in observed) if observed else None
        realized_iter = _mean(o["iteration_us"] for o in observed) if observed else None
        baseline = probation["baseline_exposed_us"]
        realized_win = (
            (baseline - realized_exposed) / baseline
            if realized_exposed is not None and baseline > 0
            else None
        )
        if outcome == PROBATION_COMMITTED:
            self.commits += 1
            self._post_rollback = False
        elif outcome == PROBATION_ROLLED_BACK:
            self.rollbacks += 1
            self._post_rollback = True
        else:
            self.aborts += 1
        self._cooldown_until = iteration + 1 + self.config.cooldown_iters
        self.last_realized_win = realized_win
        return {
            "outcome": outcome,
            "iteration": iteration,
            "start_iteration": probation["start_iteration"],
            "reason": probation["reason"],
            "from_epoch": probation["from_epoch"],
            "to_epoch": probation["to_epoch"],
            "probation_len": len(observed),
            "predicted_win": probation["predicted_win"],
            "realized_win": realized_win,
            "baseline_exposed_us": baseline,
            "baseline_iteration_us": probation["baseline_iteration_us"],
            "predicted_exposed_us": probation["predicted_exposed_us"],
            "predicted_iteration_us": probation["predicted_iteration_us"],
            "realized_exposed_us": realized_exposed,
            "realized_iteration_us": realized_iter,
            "anchor": probation["anchor"],
        }

    # ------------------------------------------------------------------
    # Introspection

    def counters(self) -> dict:
        """The rap_shadow_* counter values as plain ints (CLI + tests)."""
        return {
            "candidates_evaluated": self.candidates_evaluated,
            "promotions": self.promotions,
            "commits": self.commits,
            "rollbacks": self.rollbacks,
            "aborts": self.aborts,
            "suppressed_triggers": self.suppressed_triggers,
        }

    # ------------------------------------------------------------------
    # Checkpointing

    def state_dict(self) -> dict:
        """Everything needed to resume the state machine bit-identically."""
        state = {
            "config": self.config.to_dict(),
            "counters": self.counters(),
            "window": [o.to_dict() for o in self._window],
            "pending_trigger": self.pending_trigger,
            "cooldown_until": self._cooldown_until,
            "post_rollback": self._post_rollback,
            "last_predicted_win": self.last_predicted_win,
            "last_realized_win": self.last_realized_win,
        }
        if self._probation is not None:
            state["probation"] = self._probation
        return state

    def load_state(self, state: dict) -> None:
        counters = state.get("counters", {})
        self.candidates_evaluated = int(counters.get("candidates_evaluated", 0))
        self.promotions = int(counters.get("promotions", 0))
        self.commits = int(counters.get("commits", 0))
        self.rollbacks = int(counters.get("rollbacks", 0))
        self.aborts = int(counters.get("aborts", 0))
        self.suppressed_triggers = int(counters.get("suppressed_triggers", 0))
        self._window = deque(
            ShadowObservation.from_dict(o) for o in state.get("window", ())
        )
        trigger = state.get("pending_trigger")
        self.pending_trigger = str(trigger) if trigger is not None else None
        self._cooldown_until = int(state.get("cooldown_until", 0))
        self._post_rollback = bool(state.get("post_rollback", False))
        self.last_predicted_win = state.get("last_predicted_win")
        self.last_realized_win = state.get("last_realized_win")
        self._probation = state.get("probation")
