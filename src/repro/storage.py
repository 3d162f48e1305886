"""The durable-write primitives every on-disk format here shares.

* :func:`atomic_write` — the snapshot write: a temporary file in the
  target's directory, optionally fsynced, then moved into place with
  :func:`os.replace`.  A process killed at any instant leaves either the
  previous complete file or the new one, never a torn mix, and a write
  that fails part-way removes its temporary file.  Checkpoints, campaign
  state, behavior-cache entries and WAL compaction all write this way.
* :func:`checksum` — the truncated blake2b digest of an object's
  canonical JSON encoding that WAL records and campaign state carry.
  Its bytes are part of those formats: changing the encoding or the
  digest size would make every existing file fail verification.
* :func:`seal` / :func:`unseal` — the framing of the binary formats
  (behavior-cache entries and enumeration checkpoints)::

      magic[4]  version[1]  blake2b-8(payload)[8]  payload

  :func:`unseal` checks the magic and version, then the checksum,
  before any byte of the payload is decoded, so damage anywhere in a
  file is refused instead of reaching the decoder.

The service WAL (:mod:`repro.service.wal`) is the one append log.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

_CHECKSUM_SIZE = 8  #: digest bytes (corruption detection, not crypto)


def checksum(body) -> str:
    """Hex blake2b-8 digest of ``body``'s canonical JSON encoding
    (sorted keys, no whitespace)."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=_CHECKSUM_SIZE).hexdigest()


def atomic_write(path: str | Path, data: bytes, *, fsync: bool) -> None:
    """Replace ``path`` with ``data`` atomically; with ``fsync`` the
    bytes are on disk before the rename makes them visible."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def seal(magic: bytes, version: int, payload: bytes) -> bytes:
    """Frame ``payload`` as ``magic version blake2b-8(payload) payload``."""
    digest = hashlib.blake2b(payload, digest_size=_CHECKSUM_SIZE).digest()
    return magic + bytes((version,)) + digest + payload


def unseal(magic: bytes, version: int, data: bytes) -> bytes:
    """The payload of ``data`` if it was :func:`seal`-ed with ``magic``
    and ``version`` and its checksum holds; otherwise raises
    :class:`ValueError` whose message names the problem (``"has an
    unrecognized header"`` or ``"failed its checksum"``)."""
    head = len(magic) + 1
    if data[:head] != magic + bytes((version,)):
        raise ValueError("has an unrecognized header")
    end = head + _CHECKSUM_SIZE
    payload = data[end:]
    if hashlib.blake2b(payload, digest_size=_CHECKSUM_SIZE).digest() != data[head:end]:
        raise ValueError("failed its checksum")
    return payload
