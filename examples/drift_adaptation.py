#!/usr/bin/env python
"""Online input-distribution drift and RAP's plan regeneration (§10).

Simulates weeks of online training during which users' average id-list
lengths drift upward (e.g. longer interaction histories). Each week opens
with a ``plan_drift`` event that moves the live distribution to that
week's scale, and :class:`repro.runtime.FaultTolerantRuntime` runs a few
iterations under it. The runtime's latency watchdog regenerates the plan
only when the drifted plan exposes preprocessing latency it did not
predict; drift that the co-running schedule still hides keeps the plan.
Regeneration is a sub-second search here, "a few minutes" on the paper's
hardware, either way negligible against data-shift timescales of days.

For each week the table shows the live iteration at the week's end next to
the iteration the original (stale) plan would run at under the same drift,
priced by :meth:`repro.core.RapPlanner.evaluate_scaled`.

Run:  python examples/drift_adaptation.py
"""

from repro import TrainingWorkload, build_plan, model_for_plan
from repro.core import RapPlanner
from repro.experiments.reporting import format_table
from repro.runtime import PLAN_DRIFT, FaultEvent, FaultInjector, FaultTolerantRuntime

#: Average list length per "week", relative to the planned distribution:
#: an 8%-per-week creep, a sharp jump when a new surface launches in week
#: 6, then two more surges.
WEEKLY_SCALES = (1.00, 1.05, 1.12, 1.18, 1.26, 1.35, 2.10, 2.15, 2.20, 3.00, 4.00)
ITERATIONS_PER_WEEK = 3


def main() -> None:
    graphs, schema = build_plan(2, rows=4096)
    workload = TrainingWorkload(model_for_plan(graphs, schema), num_gpus=2, local_batch=4096)
    planner = RapPlanner(workload)
    stale_plan = planner.plan(graphs)

    # Week w's drift step lands on its first iteration; steps compose, so
    # each is the ratio to the previous week's scale.
    schedule = [
        FaultEvent(PLAN_DRIFT, iteration=week * ITERATIONS_PER_WEEK, magnitude=scale / before)
        for week, (before, scale) in enumerate(zip(WEEKLY_SCALES, WEEKLY_SCALES[1:]), start=1)
    ]
    runtime = FaultTolerantRuntime(
        planner, graphs, plan=stale_plan, injector=FaultInjector(schedule=schedule)
    )

    rows = []
    replans = 0
    for week, scale in enumerate(WEEKLY_SCALES):
        report = runtime.run(ITERATIONS_PER_WEEK, start_iteration=week * ITERATIONS_PER_WEEK)
        regenerated = sum(r.replanned for r in report.iterations)
        replans += regenerated
        stale_us = planner.evaluate_scaled(stale_plan, scale).iteration_us
        rows.append(
            [
                f"week {week}",
                f"{scale:.2f}x",
                "regenerated" if regenerated else "kept",
                report.iterations[-1].iteration_us,
                stale_us,
            ]
        )

    print(
        format_table(
            ["time", "avg list length", "plan", "iteration (us)", "stale plan (us)"],
            rows,
            title="Handling runtime variability (§10): watchdog-triggered replanning",
        )
    )
    print(f"\n{replans} regenerations over {len(WEEKLY_SCALES)} weeks "
          f"({ITERATIONS_PER_WEEK} iterations each)")


if __name__ == "__main__":
    main()
