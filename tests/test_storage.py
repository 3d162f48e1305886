"""Tests for the on-disk formats and the shared atomic snapshot write.

The format pins are literal bytes: a change to the framing must
reproduce them exactly, or every WAL and campaign state already on disk
silently stops verifying.
"""

import os
from pathlib import Path

import pytest

from repro.cache import BehaviorCache
from repro.core.enumerate import (
    EnumerationCheckpoint,
    EnumerationLimits,
    enumerate_behaviors,
)
from repro.core.serialization import behavior_cache_key
from repro.errors import CacheError, EnumerationError
from repro.litmus.library import get_test
from repro.models.registry import get_model
from repro.service.wal import WALRecord, WriteAheadLog, replay_wal
from repro.storage import atomic_write
from repro.testing.coverage import CampaignConfig, CampaignState, _state_crc, save_state

PINNED_WAL_LINE = (
    '{"crc":"6d2af62c7aa91e20","data":{"attempt":2,"note":"\\u00e9",'
    '"state":"running"},"event":"state","job":"ab12","seq":3}'
)
#: Campaign-state format 2: the seen-program set is a sorted list of
#: 8-byte digest prefixes (format 1 carried a base64 bloom filter).
PINNED_STATE_BODY = {
    "format": 2,
    "next_index": 7,
    "grid": {"cells": ["a", "b"]},
    "seen": ["0123456789abcdef", "fedcba9876543210"],
}
PINNED_STATE_CRC = "247742fed2b0fa9d"


class TestFormatPins:
    def test_wal_record_line(self):
        record = WALRecord(
            seq=3,
            event="state",
            job_id="ab12",
            data={"state": "running", "attempt": 2, "note": "é"},
        )
        assert record.encode() == PINNED_WAL_LINE

    def test_pinned_wal_line_replays(self, tmp_path):
        path = tmp_path / "jobs.wal"
        path.write_text(PINNED_WAL_LINE + "\n", encoding="utf-8")
        [record] = replay_wal(path)
        assert (record.seq, record.event, record.job_id) == (3, "state", "ab12")

    def test_campaign_state_crc(self):
        assert _state_crc(PINNED_STATE_BODY) == PINNED_STATE_CRC


def test_any_damaged_checkpoint_byte_is_refused(tmp_path):
    """A checkpoint is sealed: flipping any single byte of a saved file,
    in the header, the checksum or the pickle, makes ``load`` raise
    :class:`EnumerationError` instead of resuming from (or crashing on)
    damaged state."""
    result = enumerate_behaviors(
        get_test("IRIW").program, get_model("weak"), EnumerationLimits(max_behaviors=6)
    )
    path = tmp_path / "search.ckpt"
    result.checkpoint.save(path)
    saved = path.read_bytes()
    assert EnumerationCheckpoint.load(path).stats == result.checkpoint.stats
    for position in range(len(saved)):
        damaged = bytearray(saved)
        damaged[position] ^= 0xFF
        path.write_bytes(bytes(damaged))
        with pytest.raises(EnumerationError):
            EnumerationCheckpoint.load(path)


# ----------------------------------------------------------------------
# one atomic-write test for every snapshot writer


def checkpoint_writes(directory, request):
    program = get_test("IRIW").program
    model = get_model("weak")
    path = directory / "search.ckpt"
    shallow, deeper = (
        enumerate_behaviors(program, model, EnumerationLimits(max_behaviors=budget))
        for budget in (5, 10)
    )
    return (
        lambda: shallow.checkpoint.save(path),
        lambda: deeper.checkpoint.save(path),
    )


def campaign_state_writes(directory, request):
    state = CampaignState(config=CampaignConfig(seed=1))

    def advance():
        state.next_index += 1
        save_state(state, directory)

    return advance, advance


def cache_entry_writes(directory, request):
    cache = BehaviorCache(directory)
    model = get_model("weak")

    def put(name):
        program = get_test(name).program
        result = enumerate_behaviors(program, model)
        key = behavior_cache_key(program, model, None)
        cache.store(key, program, model, None, result.executions, result.stats)

    return lambda: put("SB"), lambda: put("MP")


def wal_rewrites(directory, request):
    wal = WriteAheadLog(directory / "jobs.wal", fsync=False)
    request.addfinalizer(wal.close)
    first = [WALRecord(seq=1, event="submit", job_id="a", data={})]
    second = first + [WALRecord(seq=2, event="state", job_id="a", data={"s": 1})]
    return lambda: wal.rewrite(first), lambda: wal.rewrite(second)


class TornHandle:
    """Stands in for the temporary file: the write lands half its bytes,
    then the disk "fills up"."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        self.handle.flush()
        raise OSError("disk full")


def snapshot(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestAtomicWrite:
    @pytest.mark.parametrize(
        "writes",
        [checkpoint_writes, campaign_state_writes, cache_entry_writes, wal_rewrites],
        ids=["checkpoint", "campaign-state", "cache-entry", "wal-rewrite"],
    )
    def test_failed_write_keeps_previous_bytes(self, writes, tmp_path, request, monkeypatch):
        """A write that dies part-way leaves the previous bytes intact
        and no temporary file behind."""
        first, second = writes(tmp_path, request)
        first()
        before = snapshot(tmp_path)

        real_fdopen = os.fdopen
        monkeypatch.setattr(
            os, "fdopen", lambda *args, **kwargs: TornHandle(real_fdopen(*args, **kwargs))
        )
        with pytest.raises((OSError, CacheError)):
            second()
        monkeypatch.undo()
        assert snapshot(tmp_path) == before

        second()  # the same write, unhindered, does change the bytes
        assert snapshot(tmp_path) != before
        assert not [path for path in tmp_path.iterdir() if path.suffix == ".tmp"]

    def test_atomic_write_creates_and_replaces(self, tmp_path):
        path = tmp_path / "snapshot.bin"
        atomic_write(path, b"one", fsync=True)
        atomic_write(path, b"two", fsync=False)
        assert path.read_bytes() == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot.bin"]
