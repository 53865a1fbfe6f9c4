"""Retry policy: exponential backoff with per-stage deadlines.

A failed kernel is retried in place before any demotion, but retries are
not free: each failed attempt wastes the kernel's own wall time, and each
backoff pause stalls the GPU's iteration (the cluster is bulk-synchronous,
so one recovering GPU stalls them all). The per-stage deadline caps how
much recovery time a single placement may burn relative to its host
stage's overlapping capacity -- beyond it the runtime stops retrying and
demotes down the degradation ladder instead, mirroring how tf.data-service
style pipelines bound head-of-line blocking from a sick worker.

Two mechanisms bound *correlated* fault bursts (many kernels failing in
the same window, as a forge-generated fault storm produces):

- **Deterministic jitter**: with ``jitter_fraction > 0`` each backoff
  pause is perturbed by a pure function of ``(token, attempt)``, so
  co-failing kernels decorrelate their retry pressure instead of hammering
  the device in lockstep -- while the same run replays bit-identically.
- **Per-epoch retry budget**: ``retry_budget_per_epoch`` caps the total
  retry attempts charged against one plan epoch. A storm drains the budget
  and every further failure demotes down the ladder immediately --
  deterministic exhaustion instead of unbounded retry-spinning. The budget
  refills when a replan installs a new epoch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["RetryPolicy"]

#: Retries of the same placement before the runtime demotes it.
MAX_ATTEMPTS = 2
#: Backoff before the first retry; each further retry multiplies it by
#: ``BACKOFF_MULTIPLIER`` up to ``MAX_BACKOFF_US``.
BASE_BACKOFF_US = 25.0
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF_US = 5_000.0
#: Recovery time one stage may absorb, as a multiple of its duration.
STAGE_DEADLINE_FRACTION = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry budget for one placement rung.

    ``MAX_ATTEMPTS`` bounds retries of the same placement;
    ``STAGE_DEADLINE_FRACTION`` additionally bounds the *time* spent
    recovering at a stage to a multiple of that stage's duration, whichever
    limit hits first. Both, and the backoff curve, are module constants.
    ``jitter_fraction`` spreads each backoff pause by up to that fraction of
    its nominal value (deterministically, keyed by the caller's ``token``),
    and ``retry_budget_per_epoch`` (0 = unlimited) caps total retries per
    plan epoch across all kernels.
    """

    jitter_fraction: float = 0.0
    retry_budget_per_epoch: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")
        if self.retry_budget_per_epoch < 0:
            raise ValueError("retry_budget_per_epoch must be non-negative")

    def backoff_us(self, attempt: int, token: str = "") -> float:
        """Backoff before retry ``attempt`` (0-based), capped and jittered.

        ``token`` identifies the retrying site (kernel/GPU/iteration); two
        sites backing off from a correlated burst draw different jitter, a
        replay of the same site draws the same. With ``jitter_fraction=0``
        the jitter RNG is never constructed and the value matches the
        pre-jitter policy exactly.
        """
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        nominal = min(MAX_BACKOFF_US, BASE_BACKOFF_US * BACKOFF_MULTIPLIER**attempt)
        if self.jitter_fraction <= 0.0 or nominal <= 0.0:
            return nominal
        # String seeding survives PYTHONHASHSEED, matching the fault
        # injector's determinism contract.
        u = random.Random(f"rap-retry:{token}:{attempt}").random()
        return nominal * (1.0 + self.jitter_fraction * (2.0 * u - 1.0))

    def stage_deadline_us(self, stage_duration_us: float) -> float:
        """Maximum recovery wall time budgeted against one stage."""
        return STAGE_DEADLINE_FRACTION * max(0.0, stage_duration_us)

    def attempts_within(
        self, stage_duration_us: float, attempt_cost_us: float, token: str = ""
    ) -> int:
        """How many retry attempts fit the stage deadline.

        Each attempt costs one wasted kernel run plus its (jittered)
        backoff pause; the count is clipped to ``MAX_ATTEMPTS``.
        """
        deadline = self.stage_deadline_us(stage_duration_us)
        spent = 0.0
        attempts = 0
        while attempts < MAX_ATTEMPTS:
            cost = attempt_cost_us + self.backoff_us(attempts, token)
            if spent + cost > deadline:
                break
            spent += cost
            attempts += 1
        return attempts

