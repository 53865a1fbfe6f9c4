"""Import graph of the CLI: the removed optional lanes stay out of it.

The data path has one kernel implementation (``preprocessing/ops.py``),
one process-mode ingest handoff (pickling) and no graph library, so
importing the CLI must not load any module of those removed lanes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

FORBIDDEN = ("networkx", "repro.ingest.shmio", "repro.preprocessing.backends")


def test_cli_import_loads_no_removed_lane():
    code = "import json, sys\nimport repro.cli\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(proc.stdout)
    assert "repro.cli" in loaded
    hits = [m for m in loaded if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]
    assert hits == []


def test_pyproject_does_not_depend_on_networkx():
    assert "networkx" not in (REPO_ROOT / "pyproject.toml").read_text()
