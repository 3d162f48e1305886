"""Write-ahead log for job-state transitions.

Durability contract: :meth:`WriteAheadLog.append` returns only after the
record is on disk (written, flushed, fsynced), so any state the server
has *acknowledged* — an accepted submission, a completed result — is
recoverable after ``kill -9``.  The log is a sequence of JSON lines::

    {"seq": 3, "event": "state", "job": "ab12…", "data": {…}, "crc": "…"}

``crc`` is a blake2b digest over the canonical encoding of the other
fields, so replay detects corruption.  A crash mid-append can leave one
*torn* record at the tail; :func:`replay_wal` drops it (the transition
was never acknowledged) and opening the log cuts it off.  A bad record
followed by good ones, or a sequence-number regression, means real
corruption and raises :class:`~repro.errors.WALError`.

:meth:`WriteAheadLog.rewrite` compacts the log with
:func:`repro.storage.atomic_write`, bounding disk growth across
restarts.  This is the repository's one append log: a coverage campaign
keeps its whole state in one too (a snapshot record, then its batches).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.errors import WALError
from repro.storage import atomic_write


def _crc(seq: int, event: str, job_id: str, data: dict) -> str:
    """Hex blake2b-8 of the record's canonical JSON; its bytes are part
    of the format, so every existing log must keep verifying."""
    canonical = json.dumps([seq, event, job_id, data], sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=8).hexdigest()


@dataclass(frozen=True)
class WALRecord:
    """One durable job-state transition."""

    seq: int
    event: str
    job_id: str
    data: dict

    def encode(self) -> str:
        payload = {
            "seq": self.seq,
            "event": self.event,
            "job": self.job_id,
            "data": self.data,
            "crc": _crc(self.seq, self.event, self.job_id, self.data),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _encode(records: list[WALRecord]) -> bytes:
    return "".join(record.encode() + "\n" for record in records).encode("utf-8")


def _decode_line(line: str) -> WALRecord:
    """Parse and verify one WAL line; raises ``ValueError`` on any
    malformation (the caller decides whether that is a torn tail)."""
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError("record is not an object")
    try:
        seq = payload["seq"]
        event = payload["event"]
        job_id = payload["job"]
        data = payload["data"]
        crc = payload["crc"]
    except KeyError as exc:
        raise ValueError(f"record missing field {exc.args[0]!r}") from None
    if crc != _crc(seq, event, job_id, data):
        raise ValueError("checksum mismatch")
    return WALRecord(seq=seq, event=event, job_id=job_id, data=data)


def replay_wal(path: str | Path) -> list[WALRecord]:
    """Read every durable record from a WAL file.

    A missing file replays to an empty history (fresh server).  A torn
    final record is dropped; corruption anywhere else raises
    :class:`WALError`.
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError as exc:
        raise WALError(f"cannot read WAL {str(path)!r}: {exc}") from exc

    records: list[WALRecord] = []
    bad_at: int | None = None
    bad_reason = ""
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if bad_at is not None:
            raise WALError(
                f"WAL {str(path)!r} is corrupt at line {bad_at} "
                f"({bad_reason}) but has records after it"
            )
        try:
            record = _decode_line(line)
        except ValueError as exc:
            bad_at, bad_reason = number, str(exc)
            continue
        if records and record.seq <= records[-1].seq:
            raise WALError(
                f"WAL {str(path)!r} sequence regressed at line {number}: "
                f"{records[-1].seq} -> {record.seq}"
            )
        records.append(record)
    return records


class WriteAheadLog:
    """Append-only, fsynced, thread-safe job-transition log."""

    def __init__(self, path: str | Path, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existing = replay_wal(self.path)
        self._seq = existing[-1].seq if existing else 0
        durable = _encode(existing)
        if self.path.exists() and self.path.read_bytes() != durable:
            # The file is more than its durable records (a torn last line):
            # an append after that would leave damage mid-log, which replay refuses.
            atomic_write(self.path, durable, fsync=fsync)
        self._handle = open(self.path, "a", encoding="utf-8")

    @property
    def last_seq(self) -> int:
        return self._seq

    def append(self, event: str, job_id: str, data: dict | None = None) -> WALRecord:
        """Durably append one record; returns it (with its sequence
        number) only after the bytes are on disk."""
        with self._lock:
            record = WALRecord(
                seq=self._seq + 1, event=event, job_id=job_id, data=dict(data or {})
            )
            try:
                self._handle.write(record.encode() + "\n")
                self._handle.flush()
                if self.fsync:
                    os.fsync(self._handle.fileno())
            except OSError as exc:
                raise WALError(f"WAL append failed: {exc}") from exc
            self._seq = record.seq
            return record

    def rewrite(self, records: list[WALRecord]) -> None:
        """Atomically replace the log with ``records`` (compaction).
        Sequence numbers are preserved so replay ordering survives."""
        with self._lock:
            self._handle.close()
            try:
                atomic_write(self.path, _encode(records), fsync=self.fsync)
            finally:
                self._handle = open(self.path, "a", encoding="utf-8")
            if records:
                self._seq = max(self._seq, records[-1].seq)

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()
