"""Run every experiment and render the full evaluation record.

``rap-repro experiments [--quick]`` regenerates all tables and figures and
prints the EXPERIMENTS.md-style record.
"""

from __future__ import annotations

import time

from . import fig1, fig5, fig9, fig10, fig11, fig12, sensitivity, table5
from .tables import (
    render_table1,
    render_table2,
    render_table3,
    run_table1,
    run_table2,
    run_table3,
)

__all__ = ["run_all"]


def run_all(quick: bool = False) -> dict[str, dict]:
    """Execute every experiment; ``quick`` shrinks sweeps for smoke runs."""
    results: dict[str, dict] = {}

    def section(name: str, fn, renderer):
        start = time.perf_counter()
        results[name] = fn()
        elapsed = time.perf_counter() - start
        print(f"\n{'=' * 72}\n{name}  ({elapsed:.1f}s)\n{'=' * 72}")
        print(renderer(results[name]))

    section("table1", run_table1, render_table1)
    section("table2", run_table2, render_table2)
    section("table3", run_table3, render_table3)
    section("fig1", lambda: fig1.run(num_gpus=2 if quick else 4), fig1.render)
    section("fig5", lambda: fig5.run(num_gpus=2 if quick else 4), fig5.render)
    if quick:
        section(
            "fig9",
            lambda: fig9.run(gpu_counts=(2,), plan_ids=(0, 1), batch_sizes=(4096,)),
            fig9.render,
        )
        section("fig10", lambda: fig10.run(plan_ids=(0, 1), num_gpus=4), fig10.render)
        section("fig11", lambda: fig11.run(workload_sizes=tuple(range(0, 49, 16))), fig11.render)
        section("fig12", lambda: fig12.run(local_batch=2048), fig12.render)
        section("sensitivity", lambda: sensitivity.run(plan_id=1, num_gpus=2), sensitivity.render)
        section("table5", lambda: table5.run(num_samples=2000), table5.render)
    else:
        section("fig9", fig9.run, fig9.render)
        section("fig10", fig10.run, fig10.render)
        section("fig11", fig11.run, fig11.render)
        section("fig12", fig12.run, fig12.render)
        section("sensitivity", sensitivity.run, sensitivity.render)
        section("table5", table5.run, table5.render)
    return results
