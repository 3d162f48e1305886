"""The content-addressed behavior cache.

Behaviors are a pure function of ``(program, model, limits)`` — the
paper's enumeration has no other inputs — so a finished enumeration can
be memoized under the canonical
:func:`~repro.core.serialization.behavior_cache_key` digest and replayed
forever.  An entry is written once and never updated, so
:class:`BehaviorCache` keeps one file per key, ``<dir>/<key hex>.bin``,
fronted by a per-process LRU of decoded entries.  An entry is a
:func:`~repro.storage.seal`-ed behaviour record
(:func:`~repro.core.serialization.encode_entry`)::

    magic[4] = b"RBEH"  version[1] = 4  blake2b-8(payload)[8]  payload

where ``payload`` is canonical JSON: the request, its key, the stats,
and for each behavior its resolution log and final registers.  A hit
answers ``len()`` and ``register_outcomes()`` from the records; its
executions are rebuilt by one replay of the logs on first access, on the
request's own program and model.  A lookup without a request (such as
:meth:`BehaviorCache.verify`) rebuilds the program from its disassembly
and the model from its canonical form.

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
* hits are **verified-decodable**: the framing, the checksum, the
  record's fields and types, and the key check (the stored request
  hashes to the key looked up) must all hold before a cached result is
  returned — anything less degrades to a miss with a
  :class:`~repro.errors.CacheIntegrityWarning` and deletes the entry, so
  the re-enumeration that follows repairs it.  An entry is data decoded
  by :mod:`json`: nothing read from it is executed;
* a log that does not replay (it names a missing node, or a store that
  is not visible) raises :class:`~repro.errors.CacheError` naming the
  entry when the executions are first accessed;
* a decodable entry whose *behaviors* are wrong (a subset stored under
  an honest key) is caught by :meth:`BehaviorCache.verify` with
  ``full=True`` (``repro cache verify DIR --full``), which replays and
  re-enumerates every entry — the audit for a cache directory of
  unknown provenance.
"""

from __future__ import annotations

import os
import warnings
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.enumerate import (
    EnumerationLimits,
    EnumerationResult,
    EnumerationStats,
    enumerate_behaviors,
)
from repro.core.serialization import (
    behavior_cache_key,
    behavior_records,
    behavior_request,
    decode_entry,
    encode_entry,
    replay_logs,
    request_objects,
)
from repro.errors import CacheError, CacheIntegrityWarning, ReproError
from repro.storage import atomic_write, seal, unseal

#: The version byte of an entry's sealed framing.  An entry stamped with
#: another is a warned miss that the re-enumeration rewrites (a cache
#: directory is shareable across builds, not a compatibility contract).
CACHE_PAYLOAD_VERSION = 4

_ENTRY_SUFFIX = ".bin"
_MAGIC = b"RBEH"  #: "repro behaviors"
_LRU_SIZE = 128  #: decoded entries kept per process


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


class CachedExecutions(Sequence):
    """The executions of one cache entry.  Its length and register
    outcomes are read from the entry's
    :func:`~repro.core.serialization.behavior_records`; the executions
    are rebuilt by one
    :func:`~repro.core.serialization.replay_logs` on first access, unless
    the entry was stored from them."""

    def __init__(
        self,
        key: bytes,
        program,
        model,
        limits,
        records: tuple,
        executions: list | None = None,
    ) -> None:
        self.key = key
        self.program = program
        self.model = model
        self.limits = limits or EnumerationLimits()
        self.records = records
        self._executions = executions

    def register_outcomes(self) -> frozenset[frozenset]:
        return frozenset(
            frozenset(((thread, register), value) for thread, register, value in finals)
            for _, finals in self.records
        )

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        return self._replayed()[index]

    def _replayed(self) -> list:
        if self._executions is None:
            logs = [log for log, _ in self.records]
            try:
                executions = replay_logs(
                    self.program, self.model, self.limits.max_nodes_per_thread, logs
                )
            except ReproError as exc:
                raise CacheError(
                    f"cache entry {self.key.hex()} does not replay: {exc}"
                ) from exc
            if behavior_records(executions) != self.records or not all(
                execution.completed() for execution in executions
            ):
                raise CacheError(
                    f"cache entry {self.key.hex()} replays to an outcome it "
                    f"does not record"
                )
            self._executions = executions
        return self._executions


@dataclass(frozen=True)
class CachedBehaviors:
    """One decoded cache entry: everything the enumerator stored."""

    program: object
    model: object
    limits: object
    executions: CachedExecutions
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
            executions=entry.executions,
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
        computed from: a decoded entry's executions then replay on that
        program and model.  Without it they are rebuilt from the stored
        request."""
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
        try:
            stored, stats, records = decode_entry(
                unseal(_MAGIC, CACHE_PAYLOAD_VERSION, raw), key
            )
            if request is None:
                request = request_objects(stored)
        except ValueError as exc:
            return self._damaged(key, str(exc))
        program, model, limits = request
        return CachedBehaviors(
            program=program,
            model=model,
            limits=limits,
            executions=CachedExecutions(key, program, model, limits, records),
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
        records = behavior_records(executions)
        payload = encode_entry(behavior_request(program, model, limits), stats, records)
        data = seal(_MAGIC, CACHE_PAYLOAD_VERSION, payload)
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
                executions=CachedExecutions(
                    key, program, model, limits, records, list(executions)
                ),
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
        """Decode-verify every entry; with ``full=True`` also replay and
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
            if entry is None:
                bad.append(key.hex())
                continue
            if full:
                try:
                    stored = _loadstore_set(entry.executions)
                except CacheError:
                    bad.append(key.hex())
                    continue
                fresh = enumerate_behaviors(entry.program, entry.model, entry.limits)
                if not fresh.complete or _loadstore_set(fresh.executions) != stored:
                    bad.append(key.hex())
                    continue
            ok += 1
        return {"checked": checked, "ok": ok, "bad": bad, "full": full}


def _unlink(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass  # already gone, or not ours to delete


def _loadstore_set(executions) -> frozenset:
    return frozenset(repr(execution.loadstore_key()) for execution in executions)
