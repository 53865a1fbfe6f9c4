"""Byte-identity pin for a faulted, telemetry-on CLI run.

``fixtures/telemetry_run_digests.json`` holds SHA-256 digests of the
stdout, the journal and the three telemetry artifacts (``metrics.prom``,
``metrics.jsonl``, ``trace.json``) of one ``rap-repro run`` under kernel
failures, latency overruns and pool crashes, captured before the runtime
cached per-plan telemetry inputs. Caching what a plan install fixes must
leave every sample, metric, trace event and journal record unchanged. The
two metrics digests were re-pinned when the MILP solve cache was removed:
its ``rap_cache_*{cache="milp"}`` families are the only bytes that left.
"""

import hashlib
import json
from pathlib import Path

from repro.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "telemetry_run_digests.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_faulted_telemetry_run_is_byte_identical(tmp_path, capsys):
    pinned = json.loads(FIXTURE.read_text())
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
