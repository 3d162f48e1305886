"""The content-addressed behavior cache.

Behaviors are a pure function of ``(program, model, limits)`` — the
paper's enumeration has no other inputs — so a finished enumeration can
be memoized under the canonical
:func:`~repro.core.serialization.behavior_cache_key` digest and replayed
forever.  An entry is written once and never updated, so
:class:`BehaviorCache` keeps one file per key, ``<dir>/<key hex>.bin``,
fronted by a per-process LRU of decoded results (repeat hits inside one
process pay a dict lookup, not an unpickle).  Entry layout::

    magic[4] = b"RBEH"  version[1]  blake2b-8(payload)[8]  payload

where ``payload`` is two pickles back to back.  The first is the entry
header ``{"version", "key", "request"}``: the payload version, the cache
key the entry was written for, and the request ``(program, model,
limits)`` pickled on its own.  The second is ``(executions, stats)``,
pickled with the request's program, model and instructions as
persistent ids.  A hit through :meth:`BehaviorCache.replay` compares the
stored key with the one it looked up and resolves those ids to the
request's own objects, so it neither computes the key a second time nor
unpickles a copy of the program and model.  A lookup without a request
(such as :meth:`BehaviorCache.verify`) unpickles the stored one.

Entries are written with :func:`~repro.storage.atomic_write`, so
concurrent workers sharing a directory and a ``kill -9`` mid-put can
only ever leave a complete entry or none; a put whose entry file already
exists is skipped.  A miss is one failed ``open`` — no lookup or store
lists the directory.

Safety model
------------

* only **complete** results are ever stored (:meth:`BehaviorCache.memoize`
  refuses anything else), so a hit can never silently truncate a
  behavior set, and a budget-exhausted search leaves nothing on disk;
* hits are **verified-decodable**: the header, the payload checksum,
  the pickle decode, the payload version and the stored cache key
  must all agree before a cached result is returned — anything less
  degrades to a miss with a :class:`~repro.errors.CacheIntegrityWarning`
  and deletes the entry, so the re-enumeration that follows repairs it;
* :meth:`BehaviorCache.verify` recomputes each entry's key from its
  stored request, so an entry written under a key that is not its
  request's is reported bad; a decodable entry whose *behaviors* are
  wrong (a subset stored under an honest key) is caught by ``verify``
  with ``full=True`` (``repro cache verify DIR --full``), which
  re-enumerates every entry — the audit for a cache directory of
  unknown provenance.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import warnings
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.enumerate import (
    EnumerationResult,
    EnumerationStats,
    enumerate_behaviors,
)
from repro.core.serialization import behavior_cache_key
from repro.errors import CacheError, CacheIntegrityWarning
from repro.storage import atomic_write

#: Version stamped into every pickled payload; unknown versions decode
#: to misses (a cache directory is shareable across builds, not a
#: compatibility contract).  Version 2: ``Node`` carries its class
#: predicates as slots set at construction, which a version-1 pickle
#: lacks (its nodes would unpickle, then fail on first use).  Version 3:
#: a header pickle (version, key, pickled request) followed by the
#: executions pickled against the request (see the module docstring).
CACHE_PAYLOAD_VERSION = 3

_ENTRY_SUFFIX = ".bin"
_HEADER = b"RBEH\x01"  #: magic ("repro behaviors") + entry format version
_CHECKSUM_SIZE = 8
_LRU_SIZE = 128  #: decoded entries kept per process


def _payload_checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=_CHECKSUM_SIZE).digest()


class _RequestPickler(pickle.Pickler):
    """Pickles executions with the request's program, model and
    instructions left out, as persistent ids: ``"program"``, ``"model"``
    and ``(thread, pc)``."""

    def __init__(self, file, program, model) -> None:
        super().__init__(file)
        self._ids: dict[int, object] = {id(program): "program", id(model): "model"}
        for tid, thread in enumerate(program.threads):
            for pc, instruction in enumerate(thread.code):
                self._ids[id(instruction)] = (tid, pc)

    def persistent_id(self, obj):
        return self._ids.get(id(obj))


class _RequestUnpickler(pickle.Unpickler):
    """Resolves :class:`_RequestPickler`'s persistent ids to the objects
    of ``request``, a ``(program, model, limits)`` tuple."""

    def __init__(self, file, request: tuple) -> None:
        super().__init__(file)
        self.request = request

    def persistent_load(self, pid):
        program, model, _ = self.request
        if pid == "program":
            return program
        if pid == "model":
            return model
        tid, pc = pid
        return program.threads[tid].code[pc]


@dataclass
class CacheCounters:
    """Per-instance lookup/store accounting (process-local, not persisted)."""

    hits: int = 0  #: lookups answered from the store (LRU or disk)
    misses: int = 0  #: lookups that found nothing usable
    puts: int = 0  #: complete results written
    duplicate_puts: int = 0  #: puts skipped because the entry already exists
    decode_failures: int = 0  #: entries degraded to misses by damage
    invalidations: int = 0  #: entries deleted by :meth:`BehaviorCache.invalidate`

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class CachedBehaviors:
    """One decoded cache entry: everything the enumerator stored."""

    program: object
    model: object
    limits: object
    executions: tuple
    stats: EnumerationStats


class BehaviorCache:
    """A persistent, content-addressed memo store for enumeration results.

    Open it on a directory and pass it to
    ``enumerate_behaviors(..., cache=...)`` (or any of the CLI/fuzz/
    service surfaces that accept ``--cache-dir``).  Instances are cheap:
    nothing touches the disk until the first lookup or store, and the
    directory is created by the first store.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.counters = CacheCounters()
        self._lru: OrderedDict[bytes, CachedBehaviors] = OrderedDict()

    # -- process-shared instances --------------------------------------

    _SHARED: dict[str, "BehaviorCache"] = {}

    @classmethod
    def shared(cls, directory: str | Path) -> "BehaviorCache":
        """One instance per (process, directory) — what long-lived batch
        workers use so their LRU survives across calls."""
        key = str(Path(directory).resolve())
        cache = cls._SHARED.get(key)
        if cache is None:
            cache = cls(directory)
            cls._SHARED[key] = cache
        return cache

    # -- whole results --------------------------------------------------

    def replay(self, program, model, limits=None) -> EnumerationResult | None:
        """The memoized complete result of enumerating ``program`` under
        ``model`` with ``limits``, or ``None`` on a miss.  The result is
        built for the request (its program and model), with a private
        copy of the stored stats."""
        request = (program, model, limits)
        entry = self.lookup(behavior_cache_key(program, model, limits), request)
        if entry is None:
            return None
        return EnumerationResult(
            program=program,
            model=model,
            executions=list(entry.executions),
            stats=replace(entry.stats),
            complete=True,
            cached=True,
        )

    def memoize(self, result: EnumerationResult, limits=None) -> bool:
        """Store ``result`` as the answer to enumerating its program
        under its model with ``limits`` (the request's *full* budgets).
        Only a complete result is stored; returns whether an entry was
        written."""
        if not result.complete:
            return False
        return self.store(
            behavior_cache_key(result.program, result.model, limits),
            result.program,
            result.model,
            limits,
            result.executions,
            result.stats,
        )

    def _entry_path(self, key: bytes) -> Path:
        return self.directory / f"{key.hex()}{_ENTRY_SUFFIX}"

    # -- the read path --------------------------------------------------

    def lookup(self, key: bytes, request: tuple | None = None) -> CachedBehaviors | None:
        """The decoded entry for ``key``, or ``None``.  Never raises for
        damaged data — every failure mode is a miss.

        ``request`` is the ``(program, model, limits)`` that ``key`` was
        computed from: a decoded entry's executions then refer to that
        program and model.  Without it the stored request is unpickled."""
        entry = self._lru.get(key)
        if entry is not None:
            self._lru.move_to_end(key)
            self.counters.hits += 1
            return entry
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        except OSError as exc:
            entry = self._damaged(key, f"is unreadable ({exc})")
        else:
            entry = self._decode(key, raw, request)
        if entry is None:
            # Delete the damaged entry so the caller's re-enumeration
            # stores a good one in its place.
            _unlink(path)
            self.counters.misses += 1
            return None
        self._remember(key, entry)
        self.counters.hits += 1
        return entry

    def _damaged(self, key: bytes, problem: str) -> None:
        self.counters.decode_failures += 1
        warnings.warn(
            CacheIntegrityWarning(
                f"cache entry {key.hex()} {problem}; treating it as a miss"
            ),
            stacklevel=4,
        )

    def _decode(self, key: bytes, raw: bytes, request: tuple | None) -> CachedBehaviors | None:
        checksum_end = len(_HEADER) + _CHECKSUM_SIZE
        if raw[: len(_HEADER)] != _HEADER:
            return self._damaged(key, "has an unrecognized header")
        payload = raw[checksum_end:]
        if _payload_checksum(payload) != raw[len(_HEADER) : checksum_end]:
            return self._damaged(key, "failed its checksum")
        stream = io.BytesIO(payload)
        try:
            header = pickle.load(stream)
            version = header["version"]
            if version != CACHE_PAYLOAD_VERSION:
                return self._damaged(
                    key,
                    f"has payload version {version!r} (this build reads "
                    f"{CACHE_PAYLOAD_VERSION})",
                )
            # The key sits under the checksum, so another entry's payload
            # (or a copy of one) is refused here without recomputing it.
            if header["key"] != key:
                return self._damaged(
                    key,
                    "fails key verification (payload is for a different request)",
                )
            if request is None:
                request = pickle.loads(header["request"])
            executions, stats = _RequestUnpickler(stream, request).load()
        except Exception as exc:  # noqa: BLE001 — pickle raises anything
            return self._damaged(key, f"does not decode ({exc})")
        program, model, limits = request
        return CachedBehaviors(
            program=program,
            model=model,
            limits=limits,
            executions=executions,
            stats=stats,
        )

    def _remember(self, key: bytes, entry: CachedBehaviors) -> None:
        self._lru[key] = entry
        self._lru.move_to_end(key)
        while len(self._lru) > _LRU_SIZE:
            self._lru.popitem(last=False)

    # -- the write path -------------------------------------------------

    def store(self, key: bytes, program, model, limits, executions, stats) -> bool:
        """Write one complete result.  Returns False when the entry
        already exists (nothing written): behaviors never change, so the
        first write stands."""
        path = self._entry_path(key)
        if key in self._lru or path.exists():
            self.counters.duplicate_puts += 1
            return False
        payload = _encode(key, program, model, limits, executions, stats)
        data = _HEADER + _payload_checksum(payload) + payload
        try:
            try:
                atomic_write(path, data, fsync=False)
            except FileNotFoundError:  # first store: no directory yet
                self.directory.mkdir(parents=True, exist_ok=True)
                atomic_write(path, data, fsync=False)
        except OSError as exc:
            raise CacheError(f"cache write to {path} failed: {exc}") from exc
        self._remember(
            key,
            CachedBehaviors(
                program=program,
                model=model,
                limits=limits,
                executions=tuple(executions),
                stats=replace(stats),
            ),
        )
        self.counters.puts += 1
        return True

    def invalidate(self, key: bytes) -> None:
        """Delete an entry (e.g. one ``verify(full=True)`` reported bad)."""
        self._lru.pop(key, None)
        _unlink(self._entry_path(key))
        self.counters.invalidations += 1

    def flush(self) -> None:
        """No-op: each put is a complete entry file when :meth:`store`
        returns."""

    def close(self) -> None:
        """No-op: the cache holds no open files."""

    # -- maintenance ----------------------------------------------------

    def _entries(self) -> list[tuple[bytes, Path]]:
        """Every ``(key, path)`` entry on disk, sorted by key."""
        entries = []
        for path in sorted(self.directory.glob(f"*{_ENTRY_SUFFIX}")):
            try:
                entries.append((bytes.fromhex(path.stem), path))
            except ValueError:
                continue  # not an entry this cache wrote
        return entries

    def stats(self) -> dict:
        """Store-level accounting plus this instance's counters."""
        disk_bytes = 0
        entries = self._entries()
        for _, path in entries:
            try:
                disk_bytes += path.stat().st_size
            except OSError:
                continue  # invalidated concurrently
        return {
            "directory": str(self.directory),
            "live_entries": len(entries),
            "disk_bytes": disk_bytes,
            "counters": self.counters.as_dict(),
        }

    def verify(self, full: bool = False) -> dict:
        """Decode-verify every entry; with ``full=True`` also
        re-enumerate each and compare ``loadstore_key`` sets (slow —
        this re-pays the whole store's worth of enumeration)."""
        checked = ok = 0
        bad: list[str] = []
        for key, path in self._entries():
            checked += 1
            try:
                entry = self._decode(key, path.read_bytes(), None)
            except OSError as exc:
                entry = self._damaged(key, f"is unreadable ({exc})")
            if entry is None or behavior_cache_key(
                entry.program, entry.model, entry.limits
            ) != key:
                bad.append(key.hex())
                continue
            if full:
                fresh = enumerate_behaviors(entry.program, entry.model, entry.limits)
                if not fresh.complete or _loadstore_set(
                    fresh.executions
                ) != _loadstore_set(entry.executions):
                    bad.append(key.hex())
                    continue
            ok += 1
        return {"checked": checked, "ok": ok, "bad": bad, "full": full}


def _encode(key: bytes, program, model, limits, executions, stats) -> bytes:
    """An entry's payload: the header pickle, then the executions and
    stats pickled against the request (see the module docstring)."""
    buffer = io.BytesIO()
    header = {
        "version": CACHE_PAYLOAD_VERSION,
        "key": key,
        "request": pickle.dumps((program, model, limits)),
    }
    pickle.dump(header, buffer)
    _RequestPickler(buffer, program, model).dump((tuple(executions), stats))
    return buffer.getvalue()


def _unlink(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass  # already gone, or not ours to delete


def _loadstore_set(executions) -> frozenset:
    return frozenset(repr(execution.loadstore_key()) for execution in executions)
