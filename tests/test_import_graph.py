"""Import graph of the CLI: removed lanes and heavy optional deps stay out.

The data path has one kernel implementation (``preprocessing/ops.py``),
one ingest handoff (a thread pool feeding the backpressure queue) and no
graph library, so importing the CLI must not load any module of those
removed lanes. scipy
is imported by the MILP solver and the Fig. 5 experiment only when they
run, so importing the CLI or the planner package must not load it either,
and neither must planning or running a Table-3 plan whose fusion optimum
the pair-count bound proves.
The CLI loads the service, the forge and the figure harnesses only inside
the subcommands that use them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

FORBIDDEN = ("networkx", "repro.ingest.shmio", "repro.preprocessing.backends")


def _loaded_after_import(module: str) -> list[str]:
    """Every module a fresh interpreter holds after ``import <module>``."""
    return _loaded_after(f"import {module}")


def _loaded_after_cli(*argv: str) -> list[str]:
    """Every module a fresh interpreter holds after one CLI call exits."""
    return _loaded_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
    )


def _loaded_after(setup: str) -> list[str]:
    code = f"import json, sys\n{setup}\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def test_cli_import_loads_only_the_reporting_helpers():
    """The service, the forge and the figure harnesses load only when the
    subcommand that needs them runs."""
    loaded = _loaded_after_import("repro.cli")
    assert [m for m in loaded if m.startswith(("repro.service", "repro.forge"))] == []
    experiments = [m for m in loaded if m.startswith("repro.experiments")]
    assert experiments == ["repro.experiments", "repro.experiments.reporting"]


def test_cli_import_loads_no_removed_lane():
    loaded = _loaded_after_import("repro.cli")
    assert "repro.cli" in loaded
    hits = [m for m in loaded if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]
    assert hits == []


@pytest.mark.parametrize("module", ["repro.cli", "repro.core", "repro.preprocessing.engine"])
def test_import_loads_no_scipy(module):
    loaded = _loaded_after_import(module)
    assert module in loaded
    assert _scipy(loaded) == []


def _scipy(loaded: list[str]) -> list[str]:
    return [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


@pytest.mark.parametrize(
    "argv",
    [("plan", "--plan", "1"), ("run", "--plan", "1", "--iterations", "5")],
    ids=["plan", "run"],
)
def test_table3_plan_cli_loads_no_scipy(argv):
    """The pair-count bound proves the plan 0/1 fusion optimum, so HiGHS
    (and with it scipy) is never needed."""
    assert _scipy(_loaded_after_cli(*argv)) == []


def test_random_plan_that_needs_highs_loads_scipy():
    """Seed 5's greedy fusion start is not provably optimal by the bound,
    so the lazy scipy import on the MILP path still runs."""
    assert "scipy.optimize" in _loaded_after_cli("plan", "--random-plan", "--seed", "5")


def test_pyproject_does_not_depend_on_networkx():
    assert "networkx" not in (REPO_ROOT / "pyproject.toml").read_text()
