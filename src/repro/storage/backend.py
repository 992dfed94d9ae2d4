"""The pluggable storage protocol and the in-memory reference backend.

A :class:`StorageBackend` owns two things for one mining session:

- the **write-ahead answer log** — one :class:`AnswerRecord` per
  question the miner finishes, appended as it happens;
- the **checkpoint history** — opaque session payloads (pickles built
  by :mod:`repro.storage.checkpoint`) with their bookkeeping counts.

The knowledge base always uses its in-process
:class:`~repro.miner.state.RuleIndex`; storage never holds an index.

Every durable store is a :class:`~repro.storage.sqlite.SQLiteBackend`
(:func:`open_backend`). :class:`MemoryBackend` keeps the same state in
process memory only — for tests, and for in-process checkpoint/restore
where nothing needs to outlive the process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.errors import ReproError
from repro.io import PersistenceError


class StorageError(ReproError):
    """A storage backend could not satisfy a request."""


class CorruptStoreError(StorageError, PersistenceError):
    """Persisted bytes failed an integrity check (checksum, framing).

    Distinct from a plain :class:`StorageError` because the caller's
    recovery differs: the store is *present* but damaged — re-running
    with ``--repair`` discards the unverifiable tail and resumes from
    the last checkpoint whose checksum holds, instead of unpickling
    garbage. Also a :class:`~repro.io.PersistenceError`, since every
    integrity failure is ultimately a document that cannot be read.
    """


@dataclass(frozen=True, slots=True)
class AnswerRecord:
    """One finished question/answer exchange, as logged.

    ``rule_key`` is the canonical key of
    :func:`repro.storage.records.rule_key` (``None`` for dry open
    answers); ``support``/``confidence`` are the answered stats
    (``None`` likewise).
    """

    seq: int
    member_id: str
    kind: str
    rule_key: str | None
    support: float | None
    confidence: float | None


@dataclass(frozen=True, slots=True)
class CheckpointInfo:
    """Bookkeeping of one saved checkpoint."""

    checkpoint_id: int
    questions: int
    kb_rules: int
    answers_logged: int
    payload_bytes: int


@runtime_checkable
class StorageBackend(Protocol):
    """What the miner, the runner and the CLI need from persistence."""

    def append_answer(self, record: AnswerRecord) -> None:
        """Append one record to the write-ahead answer log."""
        ...

    def answers(self) -> list[AnswerRecord]:
        """The answer log so far, in sequence order."""
        ...

    def truncate_answers(self, keep: int) -> None:
        """Discard log entries with ``seq >= keep`` (resume rollback)."""
        ...

    def save_checkpoint(
        self, payload: bytes, *, questions: int, kb_rules: int
    ) -> CheckpointInfo:
        """Persist one opaque session payload; returns its bookkeeping."""
        ...

    def latest_checkpoint(self) -> tuple[CheckpointInfo, bytes] | None:
        """The most recent checkpoint and its payload, or ``None``."""
        ...

    def load_checkpoint(self, checkpoint_id: int) -> tuple[CheckpointInfo, bytes]:
        """One specific checkpoint and its payload (scrub/repair walks)."""
        ...

    def drop_checkpoint(self, checkpoint_id: int) -> None:
        """Discard one checkpoint (``--repair`` removing corrupt rows)."""
        ...

    def checkpoints(self) -> list[CheckpointInfo]:
        """Bookkeeping of every saved checkpoint, oldest first."""
        ...

    def bytes_on_disk(self) -> int:
        """Storage footprint in bytes (0 for purely in-memory state)."""
        ...

    def describe(self) -> str:
        """A one-line human-readable description of the backend."""
        ...

    def close(self) -> None:
        """Release any underlying resources."""
        ...


class MemoryBackend:
    """Process-memory storage: nothing outlives the process."""

    def __init__(self) -> None:
        self._answers: list[AnswerRecord] = []
        self._checkpoints: list[tuple[CheckpointInfo, bytes]] = []
        self._next_id = 1

    # -- answer log ----------------------------------------------------------

    def append_answer(self, record: AnswerRecord) -> None:
        self._answers.append(record)

    def answers(self) -> list[AnswerRecord]:
        return sorted(self._answers, key=lambda record: record.seq)

    def truncate_answers(self, keep: int) -> None:
        self._answers = [r for r in self._answers if r.seq < keep]

    # -- checkpoints ---------------------------------------------------------

    def save_checkpoint(
        self, payload: bytes, *, questions: int, kb_rules: int
    ) -> CheckpointInfo:
        info = CheckpointInfo(
            checkpoint_id=self._next_id,
            questions=questions,
            kb_rules=kb_rules,
            answers_logged=len(self._answers),
            payload_bytes=len(payload),
        )
        self._next_id += 1
        self._checkpoints.append((info, payload))
        return info

    def latest_checkpoint(self) -> tuple[CheckpointInfo, bytes] | None:
        return self._checkpoints[-1] if self._checkpoints else None

    def load_checkpoint(self, checkpoint_id: int) -> tuple[CheckpointInfo, bytes]:
        for info, payload in self._checkpoints:
            if info.checkpoint_id == checkpoint_id:
                return info, payload
        raise StorageError(f"no checkpoint #{checkpoint_id} in {self.describe()}")

    def drop_checkpoint(self, checkpoint_id: int) -> None:
        kept = [
            entry for entry in self._checkpoints
            if entry[0].checkpoint_id != checkpoint_id
        ]
        if len(kept) == len(self._checkpoints):
            raise StorageError(f"no checkpoint #{checkpoint_id} in {self.describe()}")
        self._checkpoints = kept

    def checkpoints(self) -> list[CheckpointInfo]:
        return [info for info, _ in self._checkpoints]

    # -- bookkeeping ---------------------------------------------------------

    def bytes_on_disk(self) -> int:
        return 0

    def describe(self) -> str:
        return "memory backend (process memory)"

    def close(self) -> None:
        pass


def open_backend(
    path: str | os.PathLike,
    *,
    resume: bool = False,
    readonly: bool = False,
) -> StorageBackend:
    """Open the SQLite session store a CLI/runner invocation asked for.

    ``resume=False`` starts a fresh session store (the session tables
    of an existing store at ``path`` are dropped); ``resume=True`` opens
    the existing store and fails loudly when there is none to resume
    from, or when the file is some other SQLite database. ``readonly=True``
    (implies resume semantics) opens the store for inspection only:
    mutations raise, and the connection reads a consistent WAL
    snapshot even while another process writes.
    """
    from repro.storage.sqlite import SQLiteBackend

    if path is None:
        raise StorageError("a session store requires a path")
    if (resume or readonly) and not Path(path).exists():
        raise StorageError(f"nothing to resume: {path} does not exist")
    if readonly:
        return SQLiteBackend(path, readonly=True)
    return SQLiteBackend(path, fresh=not resume)
