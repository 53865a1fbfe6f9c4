"""Byte-identity pins for faulted, telemetry-on CLI runs.

``fixtures/telemetry_run_digests.json`` holds SHA-256 digests of the
stdout, the journal and the three telemetry artifacts (``metrics.prom``,
``metrics.jsonl``, ``trace.json``) of one ``rap-repro run`` under kernel
failures, latency overruns and pool crashes, captured before the runtime
cached per-plan telemetry inputs. Caching what a plan install fixes must
leave every sample, metric, trace event and journal record unchanged. The
two metrics digests were re-pinned when the MILP solve cache was removed:
its ``rap_cache_*{cache="milp"}`` families are the only bytes that left.

``fixtures/telemetry_all_faults_run_digests.json`` pins the same five
digests for a 300-iteration run under all five non-terminal fault kinds
(adding fused-kernel OOMs and sticky plan drift), captured before the
span tracer kept compact per-iteration entries and encoded ``trace.json``
at write time: degraded, drifted and replanned iterations all reach the
trace through that path.

``fixtures/calibration_metrics_run_digests.json`` pins a drifted,
calibrated run's stdout, journal, telemetry artifacts and every checkpoint
member, captured while the runtime still built, priced and recorded a
calibrated iteration's samples one at a time: the batched recorder must
reproduce the same windows, active prices, drift events and histograms.
"""

import hashlib
import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def assert_pinned_run(fixture: Path, tmp_path: Path, capsys) -> None:
    pinned = json.loads(fixture.read_text())
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

    if "checkpoint_sha256" in pinned:
        members = {
            str(p.relative_to(checkpoint_dir)): sha256(p.read_bytes())
            for p in sorted(checkpoint_dir.glob("ckpt-*/*"))
        }
        assert members == pinned["checkpoint_sha256"]


def test_faulted_telemetry_run_is_byte_identical(tmp_path, capsys):
    assert_pinned_run(FIXTURES / "telemetry_run_digests.json", tmp_path, capsys)


def test_all_fault_kinds_telemetry_run_is_byte_identical(tmp_path, capsys):
    assert_pinned_run(FIXTURES / "telemetry_all_faults_run_digests.json", tmp_path, capsys)


def test_calibrated_telemetry_run_is_byte_identical(tmp_path, capsys):
    assert_pinned_run(FIXTURES / "calibration_metrics_run_digests.json", tmp_path, capsys)
