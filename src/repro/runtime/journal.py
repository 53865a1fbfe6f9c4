"""Append-only, crash-safe run journal.

Every control-plane event of a fault-tolerant run -- ladder transitions,
replans, membership changes, checkpoints, simulated kills -- is appended
as one JSON line, flushed and fsynced before the runtime proceeds. A
process killed mid-epoch therefore leaves a journal whose tail explains
exactly how far it got; a resumed run appends a ``resume`` record and
continues the same file.

A torn final line (the crash landed mid-write) is expected, not an
error: :meth:`RunJournal.read` skips unparseable lines.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO

__all__ = ["JournalFlaw", "RunJournal", "validate_records"]


@dataclass(frozen=True)
class JournalFlaw:
    """One unparseable journal line found by :meth:`RunJournal.scan`.

    ``kind`` is ``"torn_tail"`` when the flaw is the journal's final
    non-empty line (the expected signature of a crash mid-append) and
    ``"corrupt"`` anywhere else (which indicates real damage: the
    appender never writes a record without a trailing newline).
    """

    line: int
    kind: str
    snippet: str


class RunJournal:
    """One append-only JSONL journal for a run directory.

    Journaling is best-effort by design: a full disk or revoked handle
    must degrade observability, never crash the simulated training loop,
    so every OS error in :meth:`append` is swallowed.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = None

    def _file(self) -> IO[str]:
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            torn_tail = False
            if self.path.exists() and self.path.stat().st_size > 0:
                with self.path.open("rb") as existing:
                    existing.seek(-1, os.SEEK_END)
                    torn_tail = existing.read(1) != b"\n"
            self._handle = self.path.open("a", encoding="utf-8")
            if torn_tail:
                # The previous process died mid-append; start on a fresh
                # line so the torn fragment can't swallow our first record.
                self._handle.write("\n")
        return self._handle

    def append(self, record_type: str, **fields) -> None:
        """Durably append one event record (type + arbitrary JSON fields)."""
        record = {"type": record_type, **fields}
        try:
            handle = self._file()
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        except OSError:
            pass

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            try:
                self._handle.close()
            except OSError:
                pass
        self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    @staticmethod
    def read(path: str | Path) -> list[dict]:
        """All parseable records in the journal, oldest first.

        Unparseable lines (a torn tail from a crash mid-append) are
        skipped rather than raised.
        """
        records, _ = RunJournal.scan(path)
        return records

    @staticmethod
    def scan(path: str | Path) -> tuple[list[dict], list[JournalFlaw]]:
        """Parse the journal, reporting every flawed line alongside.

        Same tolerance as :meth:`read` -- flawed lines never abort the
        scan -- but each one is returned as a :class:`JournalFlaw` so
        post-mortem tooling (the ``journal`` CLI subcommand) can
        distinguish the expected torn tail of a crash from mid-file
        corruption.
        """
        records: list[dict] = []
        flawed: list[tuple[int, str]] = []
        journal = Path(path)
        if not journal.exists():
            return records, []
        last_content_line = 0
        with journal.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                last_content_line = number
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    flawed.append((number, line))
                    continue
                if isinstance(record, dict):
                    records.append(record)
                else:
                    flawed.append((number, line))
        flaws = [
            JournalFlaw(
                line=number,
                kind="torn_tail" if number == last_content_line else "corrupt",
                snippet=text[:80],
            )
            for number, text in flawed
        ]
        return records, flaws


def validate_records(records: list[dict]) -> tuple[list[str], list[str]]:
    """Structural validation of a scanned journal: ``(errors, warnings)``.

    Checks the invariants the runtime guarantees within one process
    lifetime: the plan epoch is monotone non-decreasing, promotions and
    ``promotion_result`` records pair up one-to-one, and probation
    outcomes are drawn from the known set. ``run`` and ``resume``
    records reset both trackers -- a resumed process deterministically
    *replays* the tail of the killed one, so epochs may legitimately
    regress and an open promotion may be re-journaled across the
    boundary. A probation left open at the end of the journal is a
    warning (the run may simply have ended mid-probation), not an error.
    """
    errors: list[str] = []
    warnings: list[str] = []
    last_epoch: int | None = None
    # None = no promotion may be open; "open" = one is; "unknown" = a
    # run/resume boundary was just crossed and either state is legal.
    promotion_state: str | None = None
    valid_outcomes = ("committed", "rolled_back", "aborted")
    for index, record in enumerate(records, start=1):
        record_type = record.get("type")
        if not isinstance(record_type, str):
            errors.append(f"record {index}: missing record type")
            continue
        if record_type in ("run", "resume"):
            last_epoch = None
            promotion_state = "unknown"
            continue
        epoch = record.get("plan_epoch")
        if isinstance(epoch, (int, float)):
            if last_epoch is not None and epoch < last_epoch:
                errors.append(
                    f"record {index} ({record_type}): plan epoch regressed "
                    f"{last_epoch} -> {epoch} without an intervening resume"
                )
            last_epoch = int(epoch)
        if record_type == "promotion":
            if promotion_state == "open":
                errors.append(
                    f"record {index}: promotion while the previous promotion "
                    "is still in probation"
                )
            promotion_state = "open"
        elif record_type == "promotion_result":
            if promotion_state is None:
                errors.append(
                    f"record {index}: promotion_result without a matching "
                    "promotion record"
                )
            outcome = record.get("outcome")
            if outcome not in valid_outcomes:
                errors.append(
                    f"record {index}: unknown probation outcome {outcome!r} "
                    f"(expected one of {', '.join(valid_outcomes)})"
                )
            promotion_state = None
    if promotion_state == "open":
        warnings.append(
            "journal ends with an open probation (no promotion_result yet)"
        )
    return errors, warnings
