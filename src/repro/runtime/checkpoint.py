"""Iteration-consistent checkpoints for the fault-tolerant runtime.

A checkpoint captures everything the runtime needs to resume as if the
process had never died: the next training iteration, the active plan (its
exact serialized bytes), the accumulated :class:`ResilienceReport`, and
the runtime's mutable control state (degradation scale, CPU-evicted
kernels, watchdog window, membership history, plan epoch). Because the
fault injector is a pure function of ``(seed, iteration, placement)`` and
plan serialization round-trips bit-identically, a resumed run replays the
exact trajectory of an uninterrupted one under the same seed.

Crash safety: every file is written atomically, and the per-checkpoint
``MANIFEST.json`` -- carrying a SHA-256 per member file -- is written
*last*. A directory without a valid manifest (the process died mid-save)
is simply not a checkpoint; :meth:`CheckpointManager.latest` skips it and
falls back to the newest complete one.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

from ..ioutil import atomic_write_text

__all__ = ["CHECKPOINT_FORMAT_VERSION", "CheckpointError", "Snapshot", "CheckpointManager"]

CHECKPOINT_FORMAT_VERSION = 1

_STATE_FILE = "state.json"
_PLAN_FILE = "plan.json"
_REPORT_FILE = "report.json"
_MANIFEST_FILE = "MANIFEST.json"

#: Untagged (cadence) checkpoint directory names; tagged checkpoints
#: (e.g. ``ckpt-00000007-anchor`` rollback anchors) carry a suffix and
#: are deliberately excluded from :meth:`CheckpointManager.latest`.
_PLAIN_CKPT_RE = re.compile(r"ckpt-\d+")
_TAG_RE = re.compile(r"[A-Za-z0-9_.-]+")


class CheckpointError(ValueError):
    """A checkpoint directory is missing, incomplete, or corrupt."""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Snapshot:
    """One loaded, digest-verified checkpoint."""

    directory: Path
    iteration: int
    state: dict
    plan_text: str
    report: dict
    manifest: dict


class CheckpointManager:
    """Writes and restores manifest-sealed checkpoint directories.

    ``keep`` bounds how many complete checkpoints survive pruning; the
    run journal (which lives alongside, not inside, the ``ckpt-*``
    directories) is never pruned.
    """

    def __init__(
        self,
        directory: str | Path,
        keep: int = 3,
        namespace: str | None = None,
    ) -> None:
        """``namespace`` scopes checkpoints to a subdirectory of the root.

        The preprocessing service gives every tenant its own namespace
        under one shared service root, so per-tenant cadence, pruning, and
        resume never see another tenant's directories.
        """
        if keep < 1:
            raise ValueError("keep must be >= 1")
        if namespace is not None and not _TAG_RE.fullmatch(namespace):
            raise ValueError(f"bad checkpoint namespace {namespace!r}")
        self.namespace = namespace
        root = Path(directory)
        self.directory = root / namespace if namespace is not None else root
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        # Pinned directory names survive pruning unconditionally. Pins are
        # in-memory by design: the pinning feature (the shadow loop's
        # rollback anchor) re-pins on restore/run start, so a crashed
        # process cannot leak a pin that protects garbage forever.
        self._pinned: set[str] = set()

    # ------------------------------------------------------------------
    # Pinning

    def pin(self, directory: str | Path) -> None:
        """Protect one checkpoint directory from pruning until unpinned.

        The shadow promotion loop pins the rollback anchor of an open
        probation so cadence checkpoints can never prune the state a
        rollback would restore.
        """
        self._pinned.add(Path(directory).name)

    def unpin(self, directory: str | Path) -> None:
        self._pinned.discard(Path(directory).name)

    # ------------------------------------------------------------------
    # Saving

    def _ckpt_dir(self, iteration: int, tag: str | None = None) -> Path:
        name = f"ckpt-{iteration:08d}"
        if tag:
            name += f"-{tag}"
        return self.directory / name

    def save(
        self,
        next_iteration: int,
        state: dict,
        plan_text: str,
        report: dict,
        tag: str | None = None,
    ) -> Path:
        """Write one checkpoint for resumption at ``next_iteration``.

        Member files land atomically first; the manifest seals the
        directory last, so a crash at any point leaves either a complete
        checkpoint or an unsealed directory that loading ignores.

        ``tag`` suffixes the directory name (``ckpt-NNNNNNNN-TAG``);
        tagged checkpoints never collide with the same iteration's
        cadence checkpoint and are skipped by :meth:`latest` -- a
        rollback *anchor* records pre-swap state to roll back to, not a
        resume point (resuming from it would fork the timeline).
        """
        if tag is not None and not _TAG_RE.fullmatch(tag):
            raise ValueError(f"bad checkpoint tag {tag!r}")
        ckpt = self._ckpt_dir(next_iteration, tag)
        ckpt.mkdir(parents=True, exist_ok=True)
        state = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "next_iteration": next_iteration,
            **state,
        }
        members = {
            _STATE_FILE: json.dumps(state, sort_keys=True, indent=2),
            _PLAN_FILE: plan_text,
            _REPORT_FILE: json.dumps(report, sort_keys=True, indent=2),
        }
        for name, text in members.items():
            atomic_write_text(ckpt / name, text)
        manifest = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "iteration": next_iteration,
            "files": {
                name: {"sha256": _digest(text), "bytes": len(text.encode("utf-8"))}
                for name, text in members.items()
            },
        }
        atomic_write_text(ckpt / _MANIFEST_FILE, json.dumps(manifest, sort_keys=True, indent=2))
        self._prune()
        return ckpt

    def _prune(self) -> None:
        complete = sorted(
            d for d in self.directory.glob("ckpt-*")
            if d.is_dir() and (d / _MANIFEST_FILE).exists()
        )
        deletable = [d for d in complete if d.name not in self._pinned]
        for stale in deletable[: -self.keep]:
            shutil.rmtree(stale, ignore_errors=True)

    # ------------------------------------------------------------------
    # Loading

    def load(self, directory: str | Path) -> Snapshot:
        """Load and digest-verify one checkpoint directory."""
        ckpt = Path(directory)
        manifest_path = ckpt / _MANIFEST_FILE
        if not manifest_path.exists():
            raise CheckpointError(f"{ckpt}: no manifest (incomplete checkpoint)")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{ckpt}: unreadable manifest ({exc})") from exc
        if not isinstance(manifest, dict) or manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"{ckpt}: unsupported checkpoint format {manifest.get('format_version')!r}"
                if isinstance(manifest, dict)
                else f"{ckpt}: malformed manifest"
            )
        texts: dict[str, str] = {}
        for name, meta in manifest.get("files", {}).items():
            member = ckpt / name
            try:
                text = member.read_text(encoding="utf-8")
            except OSError as exc:
                raise CheckpointError(f"{ckpt}: missing member {name!r} ({exc})") from exc
            if _digest(text) != meta.get("sha256"):
                raise CheckpointError(f"{ckpt}: digest mismatch for member {name!r}")
            texts[name] = text
        for required in (_STATE_FILE, _PLAN_FILE, _REPORT_FILE):
            if required not in texts:
                raise CheckpointError(f"{ckpt}: manifest lists no {required!r}")
        try:
            state = json.loads(texts[_STATE_FILE])
            report = json.loads(texts[_REPORT_FILE])
        except json.JSONDecodeError as exc:  # digests matched, so this is a writer bug
            raise CheckpointError(f"{ckpt}: corrupt member payload ({exc})") from exc
        return Snapshot(
            directory=ckpt,
            iteration=int(manifest["iteration"]),
            state=state,
            plan_text=texts[_PLAN_FILE],
            report=report,
            manifest=manifest,
        )

    def latest(self) -> Snapshot | None:
        """The newest *valid* cadence checkpoint, or ``None``.

        Invalid directories (unsealed, tampered, torn) are skipped, so a
        crash during save falls back to the previous complete checkpoint.
        Tagged checkpoints (rollback anchors) are never resume targets:
        an anchor captures *pre-promotion* state whose only purpose is
        being rolled back to; resuming from it would silently diverge
        from the killed run's actual trajectory.
        """
        candidates = sorted(
            (
                d
                for d in self.directory.glob("ckpt-*")
                if d.is_dir() and _PLAIN_CKPT_RE.fullmatch(d.name)
            ),
            reverse=True,
        )
        for candidate in candidates:
            try:
                return self.load(candidate)
            except CheckpointError:
                continue
        return None
