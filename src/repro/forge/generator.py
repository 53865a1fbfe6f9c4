"""``ScenarioForge``: seeded sampling of adversarial scenarios.

One integer seed deterministically expands into one :class:`Scenario`
covering a sampled point in the robustness space:

- **workload**: a random-but-valid preprocessing plan (dense/sparse/ngram
  mix, chain depths, batch size);
- **fleet**: 2-4 GPUs, heterogeneous (mixed A100/H100/V100 profiles)
  about half the time;
- **input drift**: categorical-skew shifts (a sparse op type's latency
  inflating mid-run) and vocabulary growth (hash/map ops creeping up for
  the rest of the run), targeted at op types actually present in the
  sampled plan;
- **arrival**: steady, diurnal, or bursty curves compiled to plan-drift
  steps;
- **background faults**: independent per-iteration rates over the full
  fault taxonomy;
- **correlated faults**: one pre-drawn pattern per scenario at most --
  a same-host ``gpu_lost`` pair, a cascading CPU-pool crash, or a
  plan-drift storm;
- **retry pressure**: jittered backoff and a per-epoch retry budget, the
  knobs that make fault storms exhaust the ladder deterministically.

Determinism contract: ``generate(seed)`` is a pure function of ``seed``.
The RNG is string-seeded (``rap-forge:<seed>``) so the stream survives hash
randomization, and every admitted scenario's audit re-generates from the
seed and asserts canonical-JSON equality.
"""

from __future__ import annotations

import random

from ..runtime.faults import (
    CPU_POOL_CRASH,
    FUSED_OOM,
    GPU_LOST,
    KERNEL_FAILURE,
    LATENCY_OVERRUN,
    PLAN_DRIFT,
    FaultEvent,
    FaultSpec,
)
from ..telemetry import LatencyDrift
from .scenario import ArrivalCurve, Scenario, WorkloadSpec

__all__ = ["ScenarioForge"]

#: Op types whose latency plausibly shifts with categorical skew (heavier
#: key distributions make hashing/dedup work harder).
SKEW_SHIFT_OPS = ("SigridHash", "MapId", "Ngram", "Bucketize")

#: Op types whose latency plausibly creeps with vocabulary growth.
VOCAB_GROWTH_OPS = ("SigridHash", "MapId")

#: Sampling bounds (all ranges inclusive).
MIN_GPUS, MAX_GPUS = 2, 4
MIN_ITERATIONS, MAX_ITERATIONS = 10, 16
HETERO_PROBABILITY = 0.5
DRIFT_PROBABILITY = 0.6
CORRELATED_PROBABILITY = 0.6
#: Device profiles a fleet draws from; the first is the homogeneous default.
PROFILES = ("a100", "h100", "v100")
BATCHES = (256, 512, 1024)
MAX_FAULT_RATE = 0.35


class ScenarioForge:
    """Deterministic scenario sampler over the module's sampling bounds."""

    def generate(self, seed: int) -> Scenario:
        """Expand one seed into one scenario (pure in ``seed``)."""
        rng = random.Random(f"rap-forge:{seed}")
        tags: list[str] = []

        workload = self._sample_workload(rng, seed)
        fleet = self._sample_fleet(rng, tags)
        iterations = rng.randint(MIN_ITERATIONS, MAX_ITERATIONS)

        drift_schedule = self._sample_drift(rng, workload, iterations, tags)
        arrival = self._sample_arrival(rng, iterations, tags)
        fault_specs = self._sample_fault_specs(rng, tags)
        fault_schedule = self._sample_correlated(rng, len(fleet), iterations, tags)

        retry_jitter = 0.0
        retry_budget = 0
        if rng.random() < 0.5:
            retry_jitter = round(rng.uniform(0.1, 0.5), 3)
            tags.append("retry-jitter")
        if rng.random() < 0.4:
            retry_budget = rng.randint(2, 6)
            tags.append("retry-budget")

        return Scenario(
            name=f"forge-{seed:05d}",
            seed=seed,
            workload=workload,
            fleet=fleet,
            iterations=iterations,
            fault_specs=fault_specs,
            fault_schedule=fault_schedule,
            drift_schedule=drift_schedule,
            arrival=arrival,
            retry_jitter=retry_jitter,
            retry_budget=retry_budget,
            tags=tuple(sorted(set(tags))),
        )

    # ------------------------------------------------------------------
    # Dimension samplers
    # ------------------------------------------------------------------

    def _sample_workload(self, rng: random.Random, seed: int) -> WorkloadSpec:
        min_chain = rng.randint(2, 3)
        return WorkloadSpec(
            plan_seed=rng.randint(0, 2**31 - 1),
            num_dense=rng.randint(2, 4),
            num_sparse=rng.randint(3, 6),
            min_chain=min_chain,
            max_chain=rng.randint(min_chain, 4),
            num_ngram_graphs=rng.randint(0, 2),
            ngram_width=2,
            batch=rng.choice(BATCHES),
        )

    def _sample_fleet(self, rng: random.Random, tags: list[str]) -> tuple[str, ...]:
        n = rng.randint(MIN_GPUS, MAX_GPUS)
        if rng.random() < HETERO_PROBABILITY:
            fleet = tuple(rng.choice(PROFILES) for _ in range(n))
            if len(set(fleet)) == 1:
                # Force at least one odd device in, otherwise the "hetero"
                # draw silently degenerates to a uniform fleet.
                other = rng.choice([p for p in PROFILES if p != fleet[0]])
                fleet = (other,) + fleet[1:]
            tags.append("hetero-fleet")
            return fleet
        return (PROFILES[0],) * n

    def _sample_drift(
        self,
        rng: random.Random,
        workload: WorkloadSpec,
        iterations: int,
        tags: list[str],
    ) -> tuple[LatencyDrift, ...]:
        if rng.random() >= DRIFT_PROBABILITY:
            return ()
        graphs, _ = workload.build()
        present = sorted({op.op_name for graph in graphs for op in graph.ops})
        drifts: list[LatencyDrift] = []

        skew_targets = [op for op in SKEW_SHIFT_OPS if op in present]
        if skew_targets and rng.random() < 0.7:
            start = rng.randint(2, max(2, iterations // 2))
            end = min(iterations, start + rng.randint(3, 6))
            drifts.append(
                LatencyDrift(
                    op_type=rng.choice(skew_targets),
                    factor=round(rng.uniform(1.4, 2.2), 3),
                    start_iteration=start,
                    end_iteration=end,
                )
            )
            tags.append("skew-shift")

        growth_targets = [op for op in VOCAB_GROWTH_OPS if op in present]
        if growth_targets and rng.random() < 0.5:
            drifts.append(
                LatencyDrift(
                    op_type=rng.choice(growth_targets),
                    factor=round(rng.uniform(1.2, 1.8), 3),
                    start_iteration=rng.randint(1, max(1, iterations // 3)),
                    end_iteration=None,
                )
            )
            tags.append("vocab-growth")
        return tuple(drifts)

    def _sample_arrival(
        self, rng: random.Random, iterations: int, tags: list[str]
    ) -> ArrivalCurve:
        roll = rng.random()
        if roll < 0.4:
            return ArrivalCurve()
        if roll < 0.7:
            tags.append("diurnal-arrival")
            return ArrivalCurve(
                shape="diurnal",
                amplitude=round(rng.uniform(0.2, 0.5), 3),
                period=rng.randint(4, 8),
            )
        tags.append("bursty-arrival")
        return ArrivalCurve(
            shape="bursty",
            amplitude=round(rng.uniform(0.4, 0.9), 3),
            burst_at=rng.randint(1, max(1, iterations - 4)),
            burst_length=rng.randint(2, 3),
        )

    def _sample_fault_specs(
        self, rng: random.Random, tags: list[str]
    ) -> tuple[FaultSpec, ...]:
        cap = MAX_FAULT_RATE
        specs: list[FaultSpec] = []
        if rng.random() < 0.7:
            specs.append(
                FaultSpec(
                    kind=KERNEL_FAILURE,
                    rate=round(rng.uniform(0.05, cap), 3),
                    persistence=round(rng.uniform(0.0, 0.2), 3),
                )
            )
        if rng.random() < 0.4:
            specs.append(
                FaultSpec(
                    kind=LATENCY_OVERRUN,
                    rate=round(rng.uniform(0.05, cap), 3),
                    magnitude=round(rng.uniform(1.3, 2.5), 3),
                )
            )
        if rng.random() < 0.25:
            specs.append(FaultSpec(kind=FUSED_OOM, rate=round(rng.uniform(0.03, 0.15), 3)))
        if specs:
            tags.append("background-faults")
        return tuple(specs)

    def _sample_correlated(
        self,
        rng: random.Random,
        num_gpus: int,
        iterations: int,
        tags: list[str],
    ) -> tuple[FaultEvent, ...]:
        if rng.random() >= CORRELATED_PROBABILITY:
            return ()
        patterns = ["pool-cascade", "drift-storm"]
        # A same-iteration pair loss needs a third survivor to stay a GPU run.
        if num_gpus >= 3:
            patterns.append("gpu-pair-loss")
        pattern = rng.choice(patterns)
        tags.append(pattern)
        at = rng.randint(2, max(2, iterations - 3))

        if pattern == "gpu-pair-loss":
            # Both victims share an (imaginary) host and die in the same
            # iteration. Events are delivered in order, and the first loss
            # compacts GPU indices, so the second victim is named by its
            # *post-compaction* index: original pair (a, b) with a < b is
            # scheduled as gpu=a then gpu=b-1.
            a, b = sorted(rng.sample(range(num_gpus), 2))
            return (
                FaultEvent(kind=GPU_LOST, iteration=at, gpu=a, recover_after=-1),
                FaultEvent(kind=GPU_LOST, iteration=at, gpu=b - 1, recover_after=-1),
            )
        if pattern == "pool-cascade":
            # The host pool crashes on consecutive iterations with rising
            # restart cost -- a flapping supervisor, not independent noise.
            return tuple(
                FaultEvent(
                    kind=CPU_POOL_CRASH,
                    iteration=min(at + k, iterations - 1),
                    magnitude=round(1.5 + 0.5 * k, 3),
                    recover_after=1,
                )
                for k in range(3)
            )
        # drift-storm: two sharp scale steps up, then the exact release, so
        # the storm is a spike with unit net scale (conservation-auditable).
        up1 = round(rng.uniform(1.3, 1.6), 3)
        up2 = round(rng.uniform(1.2, 1.5), 3)
        release = 1.0 / (up1 * up2)
        return (
            FaultEvent(kind=PLAN_DRIFT, iteration=at, magnitude=up1, recover_after=0),
            FaultEvent(
                kind=PLAN_DRIFT,
                iteration=min(at + 1, iterations - 1),
                magnitude=up2,
                recover_after=0,
            ),
            FaultEvent(
                kind=PLAN_DRIFT,
                iteration=min(at + 2, iterations - 1),
                magnitude=release,
                recover_after=0,
            ),
        )
