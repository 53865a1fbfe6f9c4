"""A checkpoint written by an older runtime still resumes bit-identically.

``fixtures/resume_checkpoint/ckpt-00000008`` is the iteration-8 cadence
checkpoint of

    rap-repro run --plan 0 --gpus 2 --batch 1024 --iterations 12
        --inject gpu_lost=0.05 --inject kernel_failure=0.2
        --drift SigridHash=3:2 --shadow --checkpoint-every 4

written before the runtime's control path was consolidated. Its state
holds a membership shrink, calibration state, shadow state and a drift
schedule. ``fixtures/resume_checkpoint_digests.json`` pins the
uninterrupted run's ``--save-report`` JSON and its journal records after
that checkpoint. Resuming the committed checkpoint under today's runtime
must reproduce both byte for byte.
"""

import hashlib
import json
import shutil
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
CHECKPOINT = FIXTURES / "resume_checkpoint" / "ckpt-00000008"
PINNED = json.loads((FIXTURES / "resume_checkpoint_digests.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_pre_refactor_checkpoint_resumes_bit_identically(tmp_path, capsys):
    checkpoint_dir = tmp_path / "ck"
    checkpoint_dir.mkdir()
    shutil.copytree(CHECKPOINT, checkpoint_dir / CHECKPOINT.name)
    report = tmp_path / "report.json"
    argv = [
        a.format(checkpoint_dir=checkpoint_dir, report=report) for a in PINNED["argv"]
    ]

    assert main([*argv, "--resume"]) == 0
    capsys.readouterr()
    assert sha256(report.read_bytes()) == PINNED["report_sha256"]

    # The resumed journal opens with its own "resume" and "run" records;
    # everything after them replays the uninterrupted run's tail.
    lines = (checkpoint_dir / "journal.jsonl").read_text().splitlines(keepends=True)
    assert [json.loads(line)["type"] for line in lines[:2]] == ["resume", "run"]
    tail = "".join(lines[2:]).replace(f"{checkpoint_dir}/", "")
    assert sha256(tail.encode()) == PINNED["journal_tail_sha256"]
