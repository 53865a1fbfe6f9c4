"""Byte-identity pin for a calibrated CLI run.

``fixtures/calibration_run_digests.json`` holds SHA-256 digests of the
stdout, the journal and every checkpoint member of one drifted
``rap-repro run``, captured before the residual model became incremental.
Same-seed reports, journals and checkpoints -- including the calibration
fingerprints inside the plan-cache keys -- must stay byte-identical, so
any optimisation of the calibration loop has to reproduce all of them.
"""

import hashlib
import json
from pathlib import Path

from repro.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "calibration_run_digests.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_calibrated_run_is_byte_identical(tmp_path, capsys):
    pinned = json.loads(FIXTURE.read_text())
    checkpoint_dir = tmp_path / "ck"
    argv = [a.format(checkpoint_dir=checkpoint_dir) for a in pinned["argv"]]

    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == pinned["stdout_sha256"]

    # Checkpoint records carry absolute paths; pin them relative to the
    # checkpoint directory.
    journal = (checkpoint_dir / "journal.jsonl").read_text()
    relative = journal.replace(f"{checkpoint_dir}/", "")
    assert sha256(relative.encode()) == pinned["journal_sha256"]

    members = {
        str(p.relative_to(checkpoint_dir)): sha256(p.read_bytes())
        for p in sorted(checkpoint_dir.glob("ckpt-*/*"))
    }
    assert members == pinned["checkpoint_sha256"]
