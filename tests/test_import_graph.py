"""Import graph of the CLI: removed lanes and heavy optional deps stay out.

The data path has one kernel implementation (``preprocessing/ops.py``),
one ingest handoff (a thread pool feeding the backpressure queue) and no
graph library, so importing the CLI must not load any module of those
removed lanes. scipy
is imported by the MILP solver and the Fig. 5 experiment only when they
run, so importing the CLI or the planner package must not load it either.
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
    code = f"import json, sys\nimport {module}\nprint(json.dumps(sorted(sys.modules)))\n"
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
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_pyproject_does_not_depend_on_networkx():
    assert "networkx" not in (REPO_ROOT / "pyproject.toml").read_text()
