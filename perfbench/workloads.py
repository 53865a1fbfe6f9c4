"""The benchmark's four closed-loop workloads.

Each workload is driven by one process calling the public API of
``repro``. A run performs a fixed unit sequence -- a count, never a
deadline -- so two runs of one seed do identical work. Every workload:

- builds its inputs from the seed and warms up in :meth:`Workload.setup`;
- performs one unit per :meth:`Workload.run_unit` call;
- names how its units are timed (:attr:`Workload.timing`);
- checks its outputs in :meth:`Workload.finish`, after the timed region.

Why each workload exists, and which layer it stresses, is recorded in
``NOTES.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random

#: The prototype fault mix: every non-terminal fault kind, plan_drift included.
FAULT_MIX = (
    ("kernel_failure", 0.1),
    ("latency_overrun", 0.1),
    ("fused_oom", 0.05),
    ("cpu_pool_crash", 0.02),
    ("plan_drift", 0.05),
)
#: The fault stream of every train-faults run. Plan drift is sticky -- a
#: downward step keeps every later iteration on the degraded path until a
#: replan -- so the host cost of a fault stream differs by up to 5x between
#: injector seeds. One fixed stream keeps run-to-run spread about the code,
#: not the stream; seed 0 is the stream that reaches the plan_drift defect
#: at iteration 1133 (NOTES.md). The warm-up uses another stream.
FAULT_SEED = 0
WARMUP_FAULT_SEED = 1_000_003
GPUS = 4
TRAIN_BATCH = 4096
#: Random-plan seeds whose fusion MILP needs a long branch-and-bound search
#: (seed 5: ~156 nodes, seed 6: ~1,187 nodes, seed 8: stops on the solver's
#: 30 s limit). They are planned once per run.
SEARCH_SEEDS = (5, 6, 8)
QUICK_SEEDS = (0, 1, 2, 3, 4, 7, 9)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Workload:
    """One closed loop: set-up, a fixed count of units, then checks."""

    name = ""
    #: How the benchmark times a unit against host interference; each
    #: workload uses the way that measured steadiest for it (NOTES.md).
    #: ``"wall"``: its wall time. ``"reference"``: its wall time scaled to a
    #: quiet host by a reference workload timed around it, which tracks
    #: pure interpreter work. ``"fastest"``: the fastest repetition of its
    #: work (:meth:`key`) in the run.
    timing = "wall"

    def __init__(self, seed: int, seconds: int, tracer=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def setup(self) -> None:
        raise NotImplementedError

    def units(self) -> int:
        raise NotImplementedError

    def key(self, k: int):
        """Units with equal keys repeat identical work."""
        return k

    def run_unit(self, k: int) -> None:
        raise NotImplementedError

    def recover(self, k: int, exc: Exception) -> None:
        """Called inside the failed unit's time; re-raise to abort the run."""
        raise exc

    def after_unit(self, k: int) -> None:
        """Output capture; its time is excluded from the timed region."""

    def region_started(self) -> None:
        """Hook run just before the first timed unit."""

    def finish(self) -> dict:
        """Check outputs; returns checks, digest, simulated throughput, counts."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def _train_workload(plan_id: int, batch: int):
    from repro.dlrm import TrainingWorkload, model_for_plan
    from repro.preprocessing import build_plan

    graphs, schema = build_plan(plan_id, rows=batch)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=GPUS, local_batch=batch)
    return graphs, schema, workload


def _cli_planner(workload):
    """A planner configured as ``rap-repro plan`` configures it by default."""
    from repro.core import RapPlanner

    return RapPlanner(
        workload,
        mapping_strategy="rap",
        fusion_enabled=True,
        cache=None,
        parallel_search=True,
    )


class PlanCold(Workload):
    """Cold ``RapPlanner.plan()`` calls over Table-3 plans and random plans.

    Entries are Table-3 plans 0-3 and ``--random-plan`` seeds 0-9 at batch
    4096 on 4 GPUs; each unit plans one entry with a fresh planner. The
    three long-search entries (:data:`SEARCH_SEEDS`) are planned once per
    run and the eleven others in ``passes`` whole passes. So the MILP
    search owns most of the time (``units_per_s``), while the median unit
    is a quick plan whose cost is mapping, fusion and scheduling
    (``unit_ms_p50``). The seed fixes the order of the units.
    """

    name = "plan-cold"

    def setup(self) -> None:
        from repro.dlrm import TrainingWorkload, model_for_plan
        from repro.preprocessing.random_plans import RandomPlanConfig, generate_random_plan

        self.entries = {}
        for plan_id in range(4):
            graphs, _, workload = _train_workload(plan_id, TRAIN_BATCH)
            self.entries[f"table3-{plan_id}"] = (graphs, workload)
        for seed in sorted(QUICK_SEEDS + SEARCH_SEEDS):
            graphs, schema = generate_random_plan(RandomPlanConfig(seed=seed), rows=TRAIN_BATCH)
            workload = TrainingWorkload(
                model_for_plan(graphs, schema), num_gpus=GPUS, local_batch=TRAIN_BATCH
            )
            self.entries[f"random-{seed}"] = (graphs, workload)
        self.passes = max(3, self.seconds)
        search = [f"random-{s}" for s in SEARCH_SEEDS]
        quick = [k for k in self.entries if k not in search]
        sequence = quick * self.passes + search
        random.Random(f"plan-cold:{self.seed}").shuffle(sequence)
        self.sequence = sequence
        # Only digests and one plan per entry are kept, so the process does
        # not grow during the run (every unit forks the pricing pool).
        self.digests: dict[str, set] = {}
        self.plans: dict[str, object] = {}
        # Warm-up: one cold plan touches every planner code path and the
        # candidate-pricing pool.
        graphs, workload = self.entries["random-0"]
        _cli_planner(workload).plan(graphs)

    def units(self) -> int:
        return len(self.sequence)

    def run_unit(self, k: int) -> None:
        graphs, workload = self.entries[self.sequence[k]]
        self.last = _cli_planner(workload).plan(graphs)

    def after_unit(self, k: int) -> None:
        from repro.core.serialization import plan_to_json

        key, plan = self.sequence[k], self.last
        self.last = None
        digest = hashlib.sha256(plan_to_json(plan, indent=None).encode()).hexdigest()
        self.digests.setdefault(key, set()).add(digest)
        self.plans.setdefault(key, plan)

    def finish(self) -> dict:
        digests = self.digests
        samples = sim_seconds = 0.0
        broken = []
        for key, plan in self.plans.items():
            report = _cli_planner(plan.workload).evaluate(plan)
            if not report.iteration_us > 0 or not report.throughput > 0:
                broken.append(key)
                continue
            # Weighted by how often the run planned the entry.
            seconds = self.sequence.count(key) * report.iteration_us / 1e6
            samples += report.throughput * seconds
            sim_seconds += seconds
        unstable = sorted(k for k, d in digests.items() if len(d) != 1)
        checks = [
            ("every plan evaluates", not broken, ", ".join(broken) or f"{len(self.plans)} entries"),
            ("plan digest identical across passes", not unstable,
             ", ".join(unstable) or f"{len(digests)} entries"),
        ]
        return {
            "checks": checks,
            "digests": {k: next(iter(d)) for k, d in digests.items() if len(d) == 1},
            "digest": _digest(sorted((k, sorted(d)) for k, d in digests.items())),
            "sim_samples_per_s": samples / sim_seconds if sim_seconds else 0.0,
            "counts": {},
        }


class _Train(Workload):
    """Plan 1 on 4 GPUs, one ``FaultTolerantRuntime.run(1, ...)`` per unit.

    The run is ``num_rounds`` identical rounds of ``round_len`` iterations,
    each on a fresh runtime whose planning falls in the round's first unit.
    """

    timing = "reference"

    def setup(self) -> None:
        self.graphs, _, self.workload = _train_workload(1, TRAIN_BATCH)
        warm = self._fresh_runtime(warmup=True)
        report = None
        try:
            for i in range(self.warmup_iterations):
                report = warm.run(1, start_iteration=i, report=report)
        except ValueError:
            pass  # the known plan_drift defect; the warm-up has done its job
        self.rounds: list[list] = []  # per round: [(runtime, report), ...]
        self.crashes: list[dict] = []
        self.runtime = self.report = None

    def _fresh_runtime(self, warmup: bool = False):
        raise NotImplementedError

    def _replace_runtime(self, new_round: bool) -> None:
        if self.runtime is not None:
            self.rounds[-1].append((self.runtime, self.report))
        if new_round:
            self.rounds.append([])
        self.runtime, self.report = self._fresh_runtime(), None

    def units(self) -> int:
        return self.round_len * self.num_rounds

    def run_unit(self, k: int) -> None:
        i = k % self.round_len
        if i == 0:
            self._replace_runtime(new_round=True)
        self.report = self.runtime.run(1, start_iteration=i, report=self.report)

    def finish(self) -> dict:
        self.rounds[-1].append((self.runtime, self.report))
        per_round = [
            [r.to_dict() for _, rep in runs if rep is not None for r in rep.iterations]
            for runs in self.rounds
        ]
        reports = [rep for runs in self.rounds for _, rep in runs if rep is not None]
        records = [r for round_records in per_round for r in round_records]
        expected = self.units() - len(self.crashes)
        iteration_s = sum(r["iteration_us"] for r in records) / 1e6
        samples = len(records) * self.workload.global_batch
        counts = {
            "faults": sum(len(rep.faults) for rep in reports),
            "retries": sum(rep.retries for rep in reports),
            "ladder_transitions": sum(len(rep.transitions) for rep in reports),
            "replans": sum(rep.replans for rep in reports),
            "crashes": len(self.crashes),
        }
        digests = [_digest(round_records) for round_records in per_round]
        checks = [
            ("one iteration record per completed unit", len(records) == expected,
             f"{len(records)} records, {expected} completed units"),
            ("simulated iterations are positive", all(r["iteration_us"] > 0 for r in records),
             f"{len(records)} records"),
        ]
        if len(digests) > 1:
            checks.append(("every round repeats the same iteration records",
                           len(set(digests)) == 1, f"{len(digests)} rounds"))
        return {
            "checks": checks,
            "digest": _digest({"records": per_round[0], "crashes": self.crashes}),
            "sim_samples_per_s": samples / iteration_s if iteration_s else 0.0,
            "counts": counts,
        }


class TrainFaults(_Train):
    """Plan 1 under the seeded five-kind fault mix, telemetry on, no shadow.

    A unit that raises (a known runtime defect, see ``NOTES.md``) counts as
    failed, and the round's iteration sequence continues on a fresh
    runtime. The fault stream is :data:`FAULT_SEED` whatever the run's seed.
    """

    name = "train-faults"
    warmup_iterations = 20
    num_rounds = 1

    @property
    def round_len(self) -> int:
        # Never shorter than the 1,134 iterations that reach the plan_drift
        # defect at iteration 1133.
        return max(1150, 200 * self.seconds)

    def _fresh_runtime(self, warmup: bool = False):
        from repro.runtime import FaultInjector, FaultSpec, FaultTolerantRuntime
        from repro.telemetry import TelemetrySession

        specs = [FaultSpec(kind, rate) for kind, rate in FAULT_MIX]
        return FaultTolerantRuntime(
            _cli_planner(self.workload),
            self.graphs,
            injector=FaultInjector(specs, seed=WARMUP_FAULT_SEED if warmup else FAULT_SEED),
            telemetry=TelemetrySession(),
        )

    def recover(self, k: int, exc: Exception) -> None:
        if not isinstance(exc, ValueError):
            raise exc
        self.crashes.append({"unit": k, "iteration": k % self.round_len, "error": str(exc)})
        self._replace_runtime(new_round=False)


class TrainDrift(_Train):
    """Plan 1 with ``SigridHash`` drifting x1.6 from iteration 2.

    Each round is one calibration episode: the drift detector fires within
    a few iterations; from then on every kernel price goes through the
    calibrated predictor, and unit cost climbs as the residual windows
    fill. No faults, no shadow planning; the unit sequence does not depend
    on the seed.
    """

    name = "train-drift"
    warmup_iterations = 8
    round_len = 25

    @property
    def num_rounds(self) -> int:
        return max(2, round(0.4 * self.seconds))

    def _fresh_runtime(self, warmup: bool = False):
        from repro.runtime import FaultInjector, FaultTolerantRuntime
        from repro.telemetry import LatencyDrift, TelemetrySession

        return FaultTolerantRuntime(
            _cli_planner(self.workload),
            self.graphs,
            injector=FaultInjector([], seed=self.seed),
            telemetry=TelemetrySession(),
            drift_schedule=[LatencyDrift("SigridHash", 1.6, start_iteration=2)],
        )

    def finish(self) -> dict:
        result = super().finish()
        events = [
            sum(len(runtime.telemetry.drift_events) for runtime, _ in runs)
            for runs in self.rounds
        ]
        result["checks"].append(
            ("drift detected and recalibrated in every round", min(events) >= 1,
             f"drift events per round: {events}")
        )
        return result


class PrepStream(Workload):
    """Plan 2's terabyte schema at 8,192 rows, fed and executed for real.

    The feeder is ``rap-repro run --source``'s default (thread mode, depth
    2, one worker, block queue of 4) over a synthetic source; the engine is
    a ``ParallelEngine`` with two workers. A unit is ``next()`` plus
    ``execute()``. Each round is one pass of the feeder over the same
    ``round_len`` batches. Generation and execution share the host's cores.
    """

    name = "prep-stream"
    timing = "fastest"
    rows = 8192
    round_len = 10
    #: Round positions whose engine output is checked against the naive executor.
    checked = (3, 8)

    def setup(self) -> None:
        from repro.ingest import IngestMetrics, PipelinedFeeder, QueueConfig
        from repro.ingest.sources import SyntheticSource
        from repro.preprocessing import EngineMetrics, ParallelEngine

        graphs, schema, workload = _train_workload(2, self.rows)
        planner = _cli_planner(workload)
        self.plan = planner.plan(graphs)
        self.sim_samples_per_s = planner.evaluate(self.plan).throughput
        source = SyntheticSource(
            schema, batch_size=self.rows, num_batches=self.round_len, seed=self.seed
        )
        self.ingest_metrics = IngestMetrics()
        self.feeder = PipelinedFeeder(
            source,
            depth=2,
            workers=1,
            queue=QueueConfig(capacity=4, policy="block"),
            metrics=self.ingest_metrics,
        )
        self.engine_metrics = EngineMetrics()
        self.engine = ParallelEngine(self.plan.graph_set, workers=2, metrics=self.engine_metrics)
        self.captured: dict[int, list] = {i: [] for i in self.checked}
        self.inputs: dict[int, object] = {}
        self.stalls: list[tuple[float, float]] = []
        self.queue_peak = 0.0
        # Warm-up: spawn the engine workers and run a short feeder pass.
        self.stream = iter(self.feeder)
        for _ in range(2):
            self.engine.execute(next(self.stream))
        self._end_pass()

    @property
    def num_rounds(self) -> int:
        return max(2, self.seconds)

    def units(self) -> int:
        return self.round_len * self.num_rounds

    def key(self, k: int):
        return k % self.round_len

    def _end_pass(self) -> None:
        """Close the feeder pass; the lease's release publishes its stalls."""
        self.stream.close()
        self.stream = None
        m = self.ingest_metrics
        self.stalls.append((m.consumer_stall_ratio.value, m.producer_stall_ratio.value))
        self.queue_peak = max(self.queue_peak, m.queue_peak_depth.value)

    def _busy(self) -> tuple[float, list[float]]:
        registry = self.engine_metrics.registry
        busy = [
            registry.counter("rap_engine_worker_busy_seconds_total",
                             labels={"worker": str(i)}).value
            for i in range(self.engine.num_workers)
        ]
        return self.engine_metrics.exec_seconds_total.value, busy

    def region_started(self) -> None:
        self.busy_start = self._busy()
        self.stalls.clear()
        self.queue_peak = 0.0

    def run_unit(self, k: int) -> None:
        if self.stream is None:
            self.stream = iter(self.feeder)
        with self.span("ingest.next"):
            batch = next(self.stream)
        self.last = (batch, self.engine.execute(batch))

    def after_unit(self, k: int) -> None:
        i = k % self.round_len
        if i in self.captured:
            batch, out = self.last
            self.inputs.setdefault(i, batch)
            self.captured[i].append(_batch_digest(out))
        self.last = None
        if i == self.round_len - 1:
            self._end_pass()

    def finish(self) -> dict:
        from repro.preprocessing.executor import execute_graph_set

        wall_end, busy_end = self._busy()
        wall = wall_end - self.busy_start[0]
        fractions = [(b - a) / wall for a, b in zip(self.busy_start[1], busy_end)] if wall else []
        shm_bytes = self.engine.shm_bytes_in_flight()
        self.close()
        naive_differs = [
            i for i, batch in self.inputs.items()
            if _batch_digest(execute_graph_set(self.plan.graph_set, batch)) != self.captured[i][0]
        ]
        rounds_differ = [i for i, digests in self.captured.items() if len(set(digests)) != 1]
        checks = [
            ("engine output bit-identical to the naive executor", not naive_differs,
             f"positions {naive_differs} differ" if naive_differs
             else f"batches {sorted(self.inputs)} of the pass"),
            ("every round repeats the same engine output", not rounds_differ,
             f"positions {rounds_differ} differ" if rounds_differ
             else f"{self.num_rounds} rounds"),
        ]
        n = len(self.stalls)
        return {
            "checks": checks,
            "digest": _digest({i: d[0] for i, d in sorted(self.captured.items())}),
            "sim_samples_per_s": self.sim_samples_per_s,
            "counts": {
                "busy_max": max(fractions, default=0.0),
                "busy_mean": sum(fractions) / len(fractions) if fractions else 0.0,
                "queue_peak_depth": self.queue_peak,
                "consumer_stall_ratio": sum(c for c, _ in self.stalls) / n if n else 0.0,
                "producer_stall_ratio": sum(p for _, p in self.stalls) / n if n else 0.0,
                "shm_bytes": shm_bytes,
            },
        }

    def close(self) -> None:
        if getattr(self, "engine", None) is not None:
            if self.stream is not None:
                self.stream.close()
                self.stream = None
            self.feeder.close()
            self.engine.close()
            self.engine = None


def _batch_digest(batch) -> str:
    """Bitwise digest of every column (NaN payloads included)."""
    h = hashlib.sha256()
    for name in sorted(batch.dense):
        values = batch.dense[name].values
        h.update(f"{name}:{values.dtype.str}".encode())
        h.update(values.tobytes())
    for name in sorted(batch.sparse):
        col = batch.sparse[name]
        h.update(f"{name}:{col.offsets.dtype.str}:{col.values.dtype.str}:{col.hash_size}".encode())
        h.update(col.offsets.tobytes())
        h.update(col.values.tobytes())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (PlanCold, TrainFaults, TrainDrift, PrepStream)}
