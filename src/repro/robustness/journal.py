"""Crash-safe batch journal: an append-only JSONL write-ahead log.

A killed batch should not restart from zero.  A :class:`BatchJournal`
records every resolved :class:`~repro.robustness.outcomes.QuestionOutcome`
as one JSON line -- flushed and ``fsync``-ed before the next question
starts, with a SHA-256 checksum over the record's canonical JSON -- so
whatever survives a crash is exactly the set of fully-completed
questions.  On resume, ``NedExplain.explain_each(journal=...)`` replays
the journalled outcomes verbatim and computes only the remainder; the
merged result is identical to an uninterrupted run.

Crash-safety rules on load:

* a torn trailing line (the process died mid-``write``) is discarded;
* replay stops at the *first* record that fails to parse or verify --
  an append-only log is only trustworthy up to its first corruption;
* a record whose question identity (text + digest) differs from the
  batch being resumed raises :class:`~repro.errors.JournalError`:
  that journal belongs to a different batch, and replaying it would
  silently merge two runs.

Records are keyed by **question identity**: the submission index plus a
stable SHA-256 digest of the question text.  A parallel batch journals
outcomes in *completion* order, which is not index order, so resume
must not assume a positional prefix -- any subset of indexes may be
present after a crash, each replayed independently.  Appends are
serialized under an internal lock (worker threads of a
:class:`~repro.robustness.executor.ParallelExecutor` share one
journal), and each record is still flushed + ``fsync``-ed before the
append returns.

Two environment hooks drive the crash/drain test harnesses (inert
unless explicitly set):

* ``REPRO_JOURNAL_CRASH_AFTER`` -- SIGKILL this process immediately
  after the N-th record is durably appended: the deterministic "pull
  the plug" of the kill/resume differential (the ``chaos-resume`` and
  ``chaos-parallel`` CI jobs);
* ``REPRO_JOURNAL_SIGINT_AFTER`` -- send this process one SIGINT after
  the N-th append: the deterministic trigger of the graceful-drain
  test (the CLI finishes in-flight questions, journals them, and exits
  with the documented drain code).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
from pathlib import Path
from typing import Any, Mapping

from ..errors import ConfigurationError, JournalError, StorageError

__all__ = ["BatchJournal", "question_digest"]

#: Journal record format version.  Version 2 added the ``qdigest``
#: question-identity field; version-1 records fail verification and are
#: discarded on load (a v1 journal simply resumes from zero).
JOURNAL_VERSION = 2

#: Environment hook: SIGKILL this process after N durable appends.
CRASH_AFTER_ENV = "REPRO_JOURNAL_CRASH_AFTER"

#: Environment hook: SIGINT this process (once) after N durable appends.
SIGINT_AFTER_ENV = "REPRO_JOURNAL_SIGINT_AFTER"


def question_digest(question: str) -> str:
    """Stable identity digest of one question's text (SHA-256 prefix)."""
    return hashlib.sha256(question.encode("utf-8")).hexdigest()[:16]


def _open_journal_file(path: Path, mode: str):
    """Open the journal file, surfacing OS failures as library errors.

    A module-level hook (rather than an inline ``open``) so tests can
    exercise the permission-denied path even when the suite runs as
    root, where filesystem permission bits do not bite.
    """
    return open(path, mode, encoding="utf-8")


def _checksum(record: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON of *record* (checksum excluded)."""
    payload = {k: v for k, v in record.items() if k != "checksum"}
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class BatchJournal:
    """Write-ahead log of per-question outcomes for one batch.

    ``resume=False`` (the default) truncates any existing file: the
    journal describes exactly one run.  ``resume=True`` loads the valid
    record prefix of an existing journal and appends new records after
    it; :meth:`completed` then serves the replayed outcomes.

    All file access flows through a :class:`~repro.storage.io.
    StorageIO` shim (*io*).  The default is the real filesystem with
    the disk-fault sites armed; a :class:`~repro.storage.backend.
    StorageBackend` passes its own shim so the journal shares the
    backend's fault plan -- and the crash-state harness passes a
    recording simulator.  The on-disk format is unchanged: journals
    written before the shim existed load and resume identically.
    """

    def __init__(
        self,
        path: str | Path,
        resume: bool = False,
        io=None,
    ):
        if io is None:
            # resolve the module-level open hook *per call* so the
            # permission-path tests can monkeypatch it
            from ..storage.io import LocalIO

            io = LocalIO(
                open_hook=lambda p, m: _open_journal_file(p, m)
            )
        self._io = io
        self.path = Path(path)
        self.resume = resume
        self._lock = threading.RLock()
        self._records: dict[int, dict] = {}
        self.discarded = 0  # torn/corrupt records dropped on load
        if resume and io.exists(self.path):
            self._load()
        if not io.is_dir(self.path.parent):
            # refuse to invent directories for a durability artifact: a
            # typo'd --journal path must fail loudly, not journal into
            # a freshly created wrong place
            raise JournalError(
                f"journal directory {self.path.parent} does not exist "
                f"(for journal {self.path}); create it first"
            )
        try:
            self._file = io.open(self.path, "a" if resume else "w")
        except (OSError, StorageError) as exc:
            raise JournalError(
                f"cannot open journal {self.path}: {exc}"
            ) from exc
        self._appended = 0
        raw = os.environ.get(CRASH_AFTER_ENV, "")
        self._crash_after = int(raw) if raw.strip() else 0
        raw = os.environ.get(SIGINT_AFTER_ENV, "")
        self._sigint_after = int(raw) if raw.strip() else 0
        self._sigint_sent = False

    # ------------------------------------------------------------------
    # Load (resume)
    # ------------------------------------------------------------------
    def _load(self) -> None:
        try:
            text = self._io.read_text(self.path)
        except (OSError, StorageError) as exc:
            raise JournalError(
                f"cannot read journal {self.path}: {exc}"
            ) from exc
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                self.discarded += 1
                break  # torn write: nothing after it is trustworthy
            if not self._verify(record):
                self.discarded += 1
                break
            self._records[int(record["index"])] = record

    @staticmethod
    def _verify(record: Any) -> bool:
        if not isinstance(record, dict):
            return False
        required = {
            "v", "index", "question", "qdigest", "outcome", "checksum",
        }
        if not required <= set(record):
            return False
        if record["v"] != JOURNAL_VERSION:
            return False
        if record["qdigest"] != question_digest(str(record["question"])):
            return False
        return _checksum(record) == record["checksum"]

    # ------------------------------------------------------------------
    # API used by explain_each
    # ------------------------------------------------------------------
    def completed(self, index: int, question: str) -> dict | None:
        """The journalled outcome dict for *index*, or ``None``.

        Records are matched by full question identity -- submission
        index plus question digest -- so a resumed parallel batch
        (whose journal holds an arbitrary, gap-filled subset of
        indexes, appended in completion order) replays exactly the
        questions that finished.  Raises
        :class:`~repro.errors.JournalError` when the journal has a
        record at *index* for a *different* question -- the log belongs
        to another batch.
        """
        with self._lock:
            record = self._records.get(index)
        if record is None:
            return None
        if (
            record["question"] != question
            or record["qdigest"] != question_digest(question)
        ):
            raise JournalError(
                f"journal {self.path} records question "
                f"{record['question']!r} at index {index}, but the "
                f"batch being resumed asks {question!r} there -- "
                "refusing to merge unrelated runs"
            )
        return record["outcome"]

    def record(
        self, index: int, question: str, outcome: Mapping[str, Any]
    ) -> None:
        """Durably append one resolved question (write + flush + fsync).

        Safe to call from several worker threads: the write + fsync +
        bookkeeping of one record is atomic under the journal lock, so
        concurrent appends interleave as whole lines, never torn ones.
        """
        with self._lock:
            if self._io.closed(self._file):
                raise ConfigurationError(
                    f"journal {self.path} is closed; no further "
                    "records can be appended"
                )
            entry: dict[str, Any] = {
                "v": JOURNAL_VERSION,
                "index": index,
                "question": question,
                "qdigest": question_digest(question),
                "outcome": dict(outcome),
            }
            entry["checksum"] = _checksum(entry)
            try:
                self._io.write(
                    self._file,
                    json.dumps(entry, sort_keys=True, default=str)
                    + "\n",
                )
                self._io.flush(self._file)
                self._io.fsync(self._file)
            except (OSError, StorageError) as exc:
                # a failed append (ENOSPC, EIO, short write) may leave
                # torn bytes at the tail; they are exactly what the
                # torn-tail discard drops on the next resume
                raise JournalError(
                    f"journal append to {self.path} failed: {exc}"
                ) from exc
            self._records[index] = entry
            self._appended += 1
            crash = (
                self._crash_after
                and self._appended >= self._crash_after
            )
            drain = (
                self._sigint_after
                and not self._sigint_sent
                and self._appended >= self._sigint_after
            )
            if drain:
                self._sigint_sent = True
        if crash:
            # the chaos-resume harness: die like a power cut, AFTER the
            # record is durable -- no atexit, no buffers, no cleanup
            os.kill(os.getpid(), signal.SIGKILL)
        if drain:
            # the graceful-drain harness: ask the process to stop, once,
            # exactly as an operator's Ctrl-C would
            os.kill(os.getpid(), signal.SIGINT)

    # ------------------------------------------------------------------
    @property
    def replayable_count(self) -> int:
        """Records loaded from a previous run (before any appends)."""
        with self._lock:
            return len(self._records) - self._appended

    def close(self) -> None:
        with self._lock:
            if not self._io.closed(self._file):
                self._io.close(self._file)

    def __enter__(self) -> "BatchJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"BatchJournal({str(self.path)!r}, records={len(self)}, "
            f"resume={self.resume})"
        )
