"""Byte-identity pins for shadow-promotion and membership-change runs.

``fixtures/shadow_run_digests.json`` holds SHA-256 digests of the stdout,
the journal and the three telemetry artifacts (``metrics.prom``,
``metrics.jsonl``, ``trace.json``) of two drifted ``rap-repro run
--shadow`` invocations, captured before the runtime's probation exits,
trigger routing and membership records were consolidated:

- ``rollback``: one promotion, rolled back on probation;
- ``membership``: the same run under ``gpu_lost`` and kernel failures --
  a fleet shrink that aborts an open probation, then a committed
  promotion.

Every journal record, metric and trace event of those control paths must
stay byte-identical.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "shadow_run_digests.json"
PINNED = json.loads(FIXTURE.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_shadow_run_is_byte_identical(name, tmp_path, capsys):
    pinned = PINNED[name]
    checkpoint_dir = tmp_path / "ck"
    metrics_dir = tmp_path / "metrics"
    argv = [
        a.format(checkpoint_dir=checkpoint_dir, metrics_dir=metrics_dir)
        for a in pinned["argv"]
    ]

    assert main(argv) == 0
    stdout = capsys.readouterr().out.replace(str(metrics_dir), "{metrics_dir}")
    assert sha256(stdout.encode()) == pinned["stdout_sha256"]

    journal = (checkpoint_dir / "journal.jsonl").read_text()
    relative = journal.replace(f"{checkpoint_dir}/", "")
    assert sha256(relative.encode()) == pinned["journal_sha256"]

    artifacts = {
        name: sha256((metrics_dir / name).read_bytes()) for name in pinned["metrics_sha256"]
    }
    assert artifacts == pinned["metrics_sha256"]
