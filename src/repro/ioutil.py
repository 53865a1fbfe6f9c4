"""Crash-safe artifact I/O shared by every on-disk writer.

Plans, cache entries, checkpoints, and resilience reports are all consumed
by *other* processes (a resumed run, a concurrent planner, a postmortem
tool), so a torn write must never be observable as a half-valid artifact.
Every writer in the repository funnels through :func:`atomic_write_text`:
the bytes land in a temporary file in the destination directory, are
fsync'd, and are published with a single atomic ``rename`` -- readers see
either the complete old content or the complete new content, never a mix.

:func:`advisory_lock` adds cooperative exclusion for shared cache
directories. It is deliberately non-mandatory and degrades gracefully: on
contention (or on platforms without ``fcntl``) the caller simply skips the
write -- for a cache that is a miss, never an error.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Iterator

try:  # POSIX only; advisory locking degrades to "never acquired" elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

__all__ = ["atomic_write_text", "atomic_write_json", "advisory_lock"]


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry so the rename itself survives a crash."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that cannot open directories
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: str | Path, text: str | Iterable[str], encoding: str = "utf-8"
) -> None:
    """Write ``text`` to ``path`` atomically (temp file + fsync + rename).

    ``text`` is one string or an iterable of string chunks, written in
    order as they are drawn, so a large artifact never has to exist as one
    string. The temporary file lives in the destination directory so the
    final ``os.replace`` is a same-filesystem atomic rename. On any failure
    -- a chunk iterator that raises included -- the temporary file is
    removed and the destination is left untouched: either its previous
    content or its previous absence.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    _fsync_directory(target.parent)


def atomic_write_json(path: str | Path, payload: Any, indent: int | None = 2) -> None:
    """Serialize ``payload`` as JSON and publish it atomically."""
    atomic_write_text(path, json.dumps(payload, indent=indent, sort_keys=True))


@contextlib.contextmanager
def advisory_lock(path: str | Path, blocking: bool = False) -> Iterator[bool]:
    """Advisory exclusive file lock; yields whether it was acquired.

    Cooperating writers (the plan cache's disk tier) take the lock
    before publishing entries so two concurrent processes never interleave
    writes to the same directory. The lock never raises on contention:
    the caller receives ``False`` and is expected to degrade (skip the
    write). Readers need no lock -- atomic renames keep reads consistent.
    """
    lock_path = Path(path)
    if fcntl is None:
        yield False
        return
    try:
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    except OSError:
        yield False
        return
    acquired = False
    try:
        flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
        try:
            fcntl.flock(fd, flags)
            acquired = True
        except OSError:
            acquired = False
        yield acquired
    finally:
        if acquired:
            with contextlib.suppress(OSError):
                fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)
