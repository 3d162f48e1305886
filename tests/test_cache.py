"""Tests for the persistent behavior cache: the canonical cache key,
the one-file-per-entry store, one damage battery for entry files,
crash-safety under ``kill -9``, the ``enumerate_behaviors(cache=...)``
integration (complete results only, one hit path), the offline
``verify(full=True)`` audit, cache-on vs cache-off oracle equivalence,
and the CLI surface."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.cache import CACHE_PAYLOAD_VERSION, BehaviorCache
from repro.core.enumerate import EnumerationLimits, enumerate_behaviors
from repro.core.serialization import behavior_cache_key, behavior_request
from repro.errors import CacheError, CacheIntegrityWarning
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble
from repro.litmus.library import all_tests, get_test
from repro.models.registry import get_model
from repro.service.jobs import canonical_result
from repro.storage import seal

SB_SOURCE = """
test SB
init x=0 y=0

thread P0
    S x, 1
    r1 = L y

thread P1
    S y, 1
    r2 = L x
"""


def loadstore_keys(executions) -> list:
    return sorted(repr(e.loadstore_key()) for e in executions)


# ----------------------------------------------------------------------
# the canonical cache key


class TestBehaviorCacheKey:
    def test_deterministic_and_sized(self):
        test = get_test("SB")
        model = get_model("tso")
        key = behavior_cache_key(test.program, model)
        assert isinstance(key, bytes) and len(key) == 16
        assert key == behavior_cache_key(test.program, model)

    def test_same_source_assembled_twice_keys_identically(self):
        first = assemble(SB_SOURCE).program
        second = assemble(SB_SOURCE).program
        assert first is not second
        model = get_model("weak")
        assert behavior_cache_key(first, model) == behavior_cache_key(second, model)

    def test_disassembly_round_trip_keys_identically(self):
        test = get_test("MP+fences")
        model = get_model("weak")
        round_tripped = assemble(disassemble(test.program)).program
        assert behavior_cache_key(test.program, model) == behavior_cache_key(
            round_tripped, model
        )

    def test_any_instruction_change_rekeys(self):
        base = assemble(SB_SOURCE).program
        changed = assemble(SB_SOURCE.replace("S y, 1", "S y, 2")).program
        model = get_model("weak")
        assert behavior_cache_key(base, model) != behavior_cache_key(changed, model)

    def test_model_changes_rekey(self):
        program = get_test("SB").program
        keys = {
            behavior_cache_key(program, get_model(name))
            for name in ("sc", "tso", "pso", "weak", "weak-spec", "weak-corr")
        }
        assert len(keys) == 6

    def test_every_limit_field_rekeys(self):
        program = get_test("SB").program
        model = get_model("weak")
        base = EnumerationLimits()
        variants = [
            EnumerationLimits(max_behaviors=base.max_behaviors - 1),
            EnumerationLimits(max_executions=base.max_executions - 1),
            EnumerationLimits(max_nodes_per_thread=base.max_nodes_per_thread - 1),
            EnumerationLimits(deadline_seconds=5.0),
            EnumerationLimits(max_memory_mb=64.0),
        ]
        keys = {behavior_cache_key(program, model, limits) for limits in variants}
        keys.add(behavior_cache_key(program, model, base))
        assert len(keys) == len(variants) + 1
        # None spells the same request as the defaults, so same key.
        assert behavior_cache_key(program, model, None) == behavior_cache_key(
            program, model, base
        )

    def test_cross_process_stability(self):
        """The digest must not depend on process state (hash seeds,
        dict order): a fresh interpreter derives the same key."""
        test = get_test("SB")
        model = get_model("tso")
        local = behavior_cache_key(test.program, model).hex()
        script = (
            "from repro.core.serialization import behavior_cache_key\n"
            "from repro.litmus.library import get_test\n"
            "from repro.models.registry import get_model\n"
            "print(behavior_cache_key(get_test('SB').program, get_model('tso')).hex())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONHASHSEED"] = "12345"  # force a different hash seed
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == local


# ----------------------------------------------------------------------
# the BehaviorCache store


def populate(cache, names=("SB", "MP"), model_name="weak"):
    keys = {}
    model = get_model(model_name)
    for name in names:
        test = get_test(name)
        enumerate_behaviors(test.program, model, cache=cache)
        keys[name] = behavior_cache_key(test.program, model, None)
    return keys


class TestBehaviorCacheStore:
    def test_round_trip_across_instances(self, tmp_path):
        cache = BehaviorCache(tmp_path)
        test = get_test("SB")
        model = get_model("weak")
        cold = enumerate_behaviors(test.program, model, cache=cache)
        cache.close()

        warm_cache = BehaviorCache(tmp_path)
        warm = enumerate_behaviors(test.program, model, cache=warm_cache)
        assert warm.cached and warm.complete
        assert loadstore_keys(warm.executions) == loadstore_keys(cold.executions)
        assert warm.register_outcomes() == cold.register_outcomes()
        assert warm_cache.counters.hits == 1

    def test_entry_file_layout_round_trip(self, tmp_path):
        """One file per key: magic and format version, a blake2b-8 of
        the payload, then one canonical-JSON record: the request (which
        hashes to the key), the key, the stats, and per behavior its
        resolution log and sorted final registers.  Nothing in it names
        a Python class."""
        keys = populate(BehaviorCache(tmp_path))
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            entry_path(tmp_path, key).name for key in keys.values()
        )
        model = get_model("weak")
        for name, key in keys.items():
            raw = entry_path(tmp_path, key).read_bytes()
            assert raw[:5] == b"RBEH" + bytes((CACHE_PAYLOAD_VERSION,))
            payload = raw[13:]
            assert raw[5:13] == hashlib.blake2b(payload, digest_size=8).digest()
            record = json.loads(payload)
            assert payload == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            ).encode()
            assert sorted(record) == ["behaviors", "key", "request", "stats"]
            program = get_test(name).program
            assert record["request"] == json.loads(
                json.dumps(behavior_request(program, model))
            )
            assert record["key"] == key.hex()
            assert b"repro." not in payload

            fresh = enumerate_behaviors(program, model)
            assert record["stats"] == vars(fresh.stats)
            assert record["behaviors"] == [
                [
                    [list(step) for step in execution.resolutions],
                    sorted(
                        [thread, register, value]
                        for (thread, register), value in execution.final_registers().items()
                    ),
                ]
                for execution in fresh.executions
            ]

    def test_lookup_and_store_never_list_the_directory(self, tmp_path, monkeypatch):
        """A miss is one failed open and a put one atomic write: neither
        may list or stat the cache directory, whose size grows with
        every campaign."""
        populate(BehaviorCache(tmp_path), ("SB",))
        model = get_model("weak")
        results = {
            name: enumerate_behaviors(get_test(name).program, model)
            for name in ("SB", "MP", "LB")
        }

        def forbidden(*args, **kwargs):
            raise AssertionError("the cache listed its directory")

        real_stat = os.stat

        def stat(path, *args, **kwargs):
            if isinstance(path, (str, os.PathLike)) and Path(path) == tmp_path:
                raise AssertionError("the cache stat-ed its directory")
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(Path, "glob", forbidden)
        monkeypatch.setattr(os, "scandir", forbidden)
        monkeypatch.setattr(os, "listdir", forbidden)
        monkeypatch.setattr(os, "stat", stat)

        cache = BehaviorCache(tmp_path)
        assert cache.lookup(os.urandom(16)) is None
        for name, result in results.items():
            program = get_test(name).program
            key = behavior_cache_key(program, model, None)
            if cache.lookup(key) is None:
                assert cache.store(
                    key, program, model, None, result.executions, result.stats
                )
            assert cache.lookup(key) is not None
        assert cache.counters.puts == 2 and cache.counters.hits == 4

    def test_incomplete_results_are_never_cached(self, tmp_path):
        """A budget-exhausted search writes nothing at all: no entry, no
        checkpoint, not even the cache directory."""
        cache_dir = tmp_path / "cache"
        cache = BehaviorCache(cache_dir)
        test = get_test("IRIW")
        model = get_model("weak")
        limits = EnumerationLimits(max_behaviors=5)
        partial = enumerate_behaviors(test.program, model, limits, cache=cache)
        assert not partial.complete and partial.checkpoint is not None
        assert cache.counters.puts == 0
        assert not cache_dir.exists()
        again = enumerate_behaviors(test.program, model, limits, cache=cache)
        assert not again.cached
        assert not cache.memoize(again, limits)
        assert not cache_dir.exists()

    def test_cold_miss_touches_only_its_entry(self, tmp_path, monkeypatch):
        """A cold ``enumerate_behaviors(..., cache=)`` call opens the one
        entry file it looks up and writes the one it stores; no other
        path under the cache directory (such as a ``partial/`` store) is
        consulted."""
        test = get_test("SB")
        model = get_model("weak")
        entry = entry_path(tmp_path, behavior_cache_key(test.program, model, None))
        touched = []

        def record(real):
            def wrapper(path, *args, **kwargs):
                if isinstance(path, (str, os.PathLike)):
                    touched.append(Path(path))
                return real(path, *args, **kwargs)

            return wrapper

        monkeypatch.setattr("builtins.open", record(open))
        monkeypatch.setattr(os, "stat", record(os.stat))
        cache = BehaviorCache(tmp_path)
        result = enumerate_behaviors(test.program, model, cache=cache)
        monkeypatch.undo()

        assert result.complete and not result.cached and cache.counters.puts == 1
        under_cache = {path for path in touched if tmp_path in path.parents}
        assert all(path.parent == tmp_path for path in under_cache)
        assert {path for path in under_cache if path.suffix == ".bin"} == {entry}
        assert not any("partial" in path.parts for path in touched)
        assert [path.name for path in tmp_path.iterdir()] == [entry.name]

    def test_hits_answer_outcomes_without_replaying(self, tmp_path, monkeypatch):
        """On every library test under sc/tso/pso/weak, a disk hit's
        canonical result is byte-identical to a fresh enumeration's, and
        no execution is built to answer it."""
        import repro.cache.store as store_module
        from repro.core.execution import Execution

        cells = [
            (test.program, get_model(name))
            for test in all_tests()
            for name in ("sc", "tso", "pso", "weak")
        ]
        cache = BehaviorCache(tmp_path)
        fresh = [
            json.dumps(canonical_result(enumerate_behaviors(*cell, cache=cache)))
            for cell in cells
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("a cache hit built an execution")

        monkeypatch.setattr(store_module, "replay_logs", forbidden)
        monkeypatch.setattr(Execution, "__init__", forbidden)
        warm = BehaviorCache(tmp_path)
        for cell, expected in zip(cells, fresh):
            hit = enumerate_behaviors(*cell, cache=warm)
            assert hit.cached
            assert json.dumps(canonical_result(hit)) == expected
        assert warm.counters.hits == len(cells) == 180

    def test_replay_builds_the_request_result(self, tmp_path):
        """The one hit path: ``replay`` answers with a complete, cached
        result for the request, whose stats are a private copy."""
        cache = BehaviorCache(tmp_path)
        test = get_test("MP")
        model = get_model("tso")
        assert cache.replay(test.program, model) is None
        cold = enumerate_behaviors(test.program, model, cache=cache)
        hit = cache.replay(test.program, model, EnumerationLimits())
        assert hit.cached and hit.complete and hit.reason is None
        assert hit.program is test.program and hit.model is model
        assert loadstore_keys(hit.executions) == loadstore_keys(cold.executions)
        assert hit.stats == cold.stats
        hit.stats.explored += 1000
        assert cache.replay(test.program, model).stats == cold.stats
        assert cache.replay(test.program, model, EnumerationLimits(max_behaviors=9)) is None

    def test_disk_hit_computes_one_key_and_reuses_the_request(self, tmp_path, monkeypatch):
        """A hit served from disk computes the cache key once (to find
        the entry) and hands back executions built on the request's own
        program, model and instructions, not unpickled copies."""
        import repro.cache.store as store_module

        test = get_test("IRIW")
        model = get_model("weak")
        enumerate_behaviors(test.program, model, cache=BehaviorCache(tmp_path))
        calls = []
        real_key = store_module.behavior_cache_key

        def counting_key(*args, **kwargs):
            calls.append(args)
            return real_key(*args, **kwargs)

        monkeypatch.setattr(store_module, "behavior_cache_key", counting_key)
        hit = BehaviorCache(tmp_path).replay(test.program, model)
        assert hit is not None and hit.cached and len(calls) == 1
        code = {id(i) for thread in test.program.threads for i in thread.code}
        for execution in hit.executions:
            assert execution.program is test.program and execution.model is model
            assert all(
                node.instruction is None or id(node.instruction) in code
                for node in execution.graph.nodes
            )

    def test_verify_reports_an_entry_under_another_requests_key(self, tmp_path):
        """An entry whose stored request does not hash to its key is
        refused by the one integrity check: a lookup is a warned miss,
        and ``verify`` reports it."""
        cache = BehaviorCache(tmp_path)
        populate(cache, ("MP",))
        program = get_test("SB").program
        model = get_model("weak")
        result = enumerate_behaviors(program, model)
        foreign = behavior_cache_key(get_test("LB").program, model, None)
        cache.store(foreign, program, model, None, result.executions, result.stats)
        with pytest.warns(CacheIntegrityWarning, match="fails key verification"):
            report = BehaviorCache(tmp_path).verify()
        assert report["checked"] == 2 and report["ok"] == 1
        assert report["bad"] == [foreign.hex()]
        with pytest.warns(CacheIntegrityWarning, match="fails key verification"):
            assert BehaviorCache(tmp_path).lookup(foreign) is None

    def test_duplicate_puts_are_skipped(self, tmp_path):
        cache = BehaviorCache(tmp_path)
        test = get_test("SB")
        model = get_model("weak")
        enumerate_behaviors(test.program, model, cache=cache)
        result = enumerate_behaviors(test.program, model, cache=cache)
        assert result.cached
        assert cache.counters.puts == 1 and cache.counters.duplicate_puts == 0
        # force a re-store attempt under the same key
        key = behavior_cache_key(test.program, model, None)
        stored = cache.store(
            key, test.program, model, None, result.executions, result.stats
        )
        assert stored is False and cache.counters.duplicate_puts == 1

    def test_invalidate_unlinks_the_entry(self, tmp_path):
        cache = BehaviorCache(tmp_path)
        keys = populate(cache)
        cache.invalidate(keys["SB"])
        assert not entry_path(tmp_path, keys["SB"]).exists()
        assert cache.lookup(keys["SB"]) is None  # the LRU forgot it too
        fresh = BehaviorCache(tmp_path)
        assert fresh.lookup(keys["SB"]) is None
        assert fresh.lookup(keys["MP"]) is not None

    def test_verify_full_reports_tampered_entries(self, tmp_path, capsys):
        cache = BehaviorCache(tmp_path)
        test = get_test("SB")
        model = get_model("weak")
        result = enumerate_behaviors(test.program, model, cache=cache)
        populate(cache, ("MP",))
        # Store a *subset* of the executions under the honest key: the
        # payload decodes and key-verifies, so only a re-enumeration
        # catches it.
        key = behavior_cache_key(test.program, model, None)
        cache.invalidate(key)
        cache.store(key, test.program, model, None, result.executions[:1], result.stats)
        cache.close()

        assert BehaviorCache(tmp_path).verify()["bad"] == []
        report = BehaviorCache(tmp_path).verify(full=True)
        assert report["checked"] == 2 and report["ok"] == 1
        assert report["bad"] == [key.hex()]

        from repro.cli import main

        assert main(["cache", "verify", str(tmp_path), "--full"]) == 1
        out = capsys.readouterr().out
        assert "1 ok, 1 bad" in out and f"BAD {key.hex()}" in out

    def test_verify_full_reenumerates(self, tmp_path):
        cache = BehaviorCache(tmp_path)
        populate(cache)
        report = cache.verify(full=True)
        assert report["checked"] == 2 and report["ok"] == 2 and not report["bad"]

    def test_stats_shape(self, tmp_path):
        cache = BehaviorCache(tmp_path)
        populate(cache)
        stats = cache.stats()
        assert stats["live_entries"] == 2
        assert stats["disk_bytes"] == sum(
            path.stat().st_size for path in Path(tmp_path).glob("*.bin")
        )
        assert stats["counters"]["puts"] == 2


# ----------------------------------------------------------------------
# store-level corruption (mirroring the checkpoint suite)


def entry_path(directory, key: bytes) -> Path:
    return Path(directory) / f"{key.hex()}.bin"


def reframe(raw: bytes, payload: bytes) -> bytes:
    """An entry with ``raw``'s header and a *valid* checksum over
    ``payload`` — damage the framing alone cannot catch."""
    return raw[:5] + hashlib.blake2b(payload, digest_size=8).digest() + payload


def flip_last_byte(raw: bytes, other: bytes) -> bytes:
    return raw[:-1] + bytes([raw[-1] ^ 0xFF])


def flip_byte(index: int):
    def damage(raw: bytes, other: bytes) -> bytes:
        return raw[:index] + bytes([raw[index] ^ 0xFF]) + raw[index + 1 :]

    return damage


def rewrite(change):
    """Damage that edits the decoded record and re-seals it with a
    *valid* checksum: ``change(record, other entry's record)``."""

    def damage(raw: bytes, other: bytes) -> bytes:
        record = json.loads(raw[13:])
        change(record, json.loads(other[13:]))
        return reframe(raw, json.dumps(record).encode())

    return damage


def set_field(name, value):
    return rewrite(lambda record, other: record.__setitem__(name, value))


def foreign_request(record, other):
    """Another entry's request under this entry's key."""
    record["request"] = other["request"]


def foreign_request_and_key(record, other):
    """A self-consistent record, but for another key than its file's."""
    record["request"], record["key"] = other["request"], other["key"]


def stringly_stats(record, other):
    record["stats"]["explored"] = str(record["stats"]["explored"])


def unknown_version(raw: bytes, other: bytes) -> bytes:
    return seal(b"RBEH", CACHE_PAYLOAD_VERSION + 1, raw[13:])


#: (id, damage(entry bytes, another entry's bytes) -> new bytes or None
#: to delete the file, whether the miss warns)
ENTRY_DAMAGE = [
    ("missing", lambda raw, other: None, False),
    ("empty", lambda raw, other: b"", True),
    ("truncated-header", lambda raw, other: raw[:3], True),
    ("truncated-payload", lambda raw, other: raw[: len(raw) // 2], True),
    ("flipped-payload-byte", flip_last_byte, True),
    ("wrong-magic", lambda raw, other: b"JUNK" + raw[4:], True),
    ("flipped-header-byte", flip_byte(4), True),  # the entry format version
    ("flipped-checksum-byte", flip_byte(5), True),
    ("unknown-payload-version", unknown_version, True),
    ("payload-of-another-key", lambda raw, other: other, True),
    ("not-json", lambda raw, other: reframe(raw, b"not json"), True),
    ("invalid-json", lambda raw, other: reframe(raw, raw[13:-1]), True),
    ("not-an-object", lambda raw, other: reframe(raw, b"[1, 2]"), True),
    ("missing-field", rewrite(lambda record, other: record.pop("stats")), True),
    ("extra-field", set_field("executions", []), True),
    ("behaviors-not-a-list", set_field("behaviors", {"0": []}), True),
    ("malformed-log", set_field("behaviors", [[[["0", 1]], []]]), True),
    ("malformed-registers", set_field("behaviors", [[[], [["P0", "r1"]]]]), True),
    ("stats-not-ints", rewrite(stringly_stats), True),
    ("request-of-another-key", rewrite(foreign_request), True),
    ("record-of-another-key", rewrite(foreign_request_and_key), True),
]


class TestCacheCorruption:
    @pytest.mark.parametrize(
        "damage,warns",
        [case[1:] for case in ENTRY_DAMAGE],
        ids=[case[0] for case in ENTRY_DAMAGE],
    )
    def test_damaged_entry_is_a_miss(self, tmp_path, damage, warns):
        """Every kind of damage to an entry file degrades to a miss —
        with a warning unless the entry is simply absent — and the
        re-enumeration that follows repairs the entry."""
        keys = populate(BehaviorCache(tmp_path))
        path = entry_path(tmp_path, keys["SB"])
        damaged = damage(path.read_bytes(), entry_path(tmp_path, keys["MP"]).read_bytes())
        if damaged is None:
            path.unlink()
        else:
            path.write_bytes(damaged)

        fresh = BehaviorCache(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert fresh.lookup(keys["SB"]) is None
        integrity = [w for w in caught if issubclass(w.category, CacheIntegrityWarning)]
        assert len(integrity) == (1 if warns else 0)
        assert fresh.counters.decode_failures == (1 if warns else 0)
        assert fresh.lookup(keys["MP"]) is not None  # the rest still hits

        result = enumerate_behaviors(get_test("SB").program, get_model("weak"), cache=fresh)
        assert not result.cached and result.complete
        assert BehaviorCache(tmp_path).lookup(keys["SB"]) is not None

    def test_version_1_entry_is_a_warned_miss(self, tmp_path):
        """Entries of the pickle formats were framed with version byte 1;
        one is a warned miss, and the re-enumeration rewrites it in the
        current format."""
        keys = populate(BehaviorCache(tmp_path))
        path = entry_path(tmp_path, keys["SB"])
        path.write_bytes(seal(b"RBEH", 1, b"\x80\x04an old pickle payload."))

        fresh = BehaviorCache(tmp_path)
        with pytest.warns(CacheIntegrityWarning, match="unrecognized header"):
            assert fresh.lookup(keys["SB"]) is None
        assert fresh.counters.decode_failures == 1
        result = enumerate_behaviors(get_test("SB").program, get_model("weak"), cache=fresh)
        assert not result.cached and result.complete
        assert path.read_bytes()[:5] == b"RBEH" + bytes((CACHE_PAYLOAD_VERSION,))
        assert BehaviorCache(tmp_path).lookup(keys["SB"]) is not None

    @pytest.mark.parametrize(
        "log",
        [[[99, 0]], [[4, 99]], [[4, 3]]],
        ids=["missing-load", "missing-store", "non-visible-store"],
    )
    def test_log_that_does_not_replay(self, tmp_path, log):
        """A record whose log names a missing node, or a store that is
        not visible (LB+data's n3 stores a loaded value), decodes: its
        length and outcomes come from the records.  Its executions raise
        :class:`CacheError` naming the entry, and ``verify(full=True)``
        reports it bad."""
        program = get_test("LB+data").program
        model = get_model("weak")
        [key] = populate(BehaviorCache(tmp_path), ("LB+data",)).values()
        path = entry_path(tmp_path, key)
        record = json.loads(path.read_bytes()[13:])
        record["behaviors"][0][0] = log
        path.write_bytes(reframe(path.read_bytes(), json.dumps(record).encode()))

        hit = enumerate_behaviors(program, model, cache=BehaviorCache(tmp_path))
        fresh = enumerate_behaviors(program, model)
        assert hit.cached and len(hit) == len(fresh)
        assert hit.register_outcomes() == fresh.register_outcomes()
        with pytest.raises(CacheError, match=f"cache entry {key.hex()} does not replay"):
            hit.executions[0]
        report = BehaviorCache(tmp_path).verify(full=True)
        assert report["bad"] == [key.hex()]

    def test_flipped_record_checksum_degrades_to_miss(self, tmp_path):
        cache = BehaviorCache(tmp_path)
        keys = populate(cache)
        path = entry_path(tmp_path, keys["SB"])
        raw = bytearray(path.read_bytes())
        raw[20:22] = bytes(b ^ 0xFF for b in raw[20:22])
        path.write_bytes(bytes(raw))

        fresh = BehaviorCache(tmp_path)
        with pytest.warns(CacheIntegrityWarning, match="failed its checksum"):
            assert fresh.lookup(keys["SB"]) is None
        assert fresh.counters.decode_failures == 1
        assert fresh.lookup(keys["MP"]) is not None  # the rest still hits
        # ...and verify reports the damage without raising.
        path.write_bytes(bytes(raw))
        with pytest.warns(CacheIntegrityWarning):
            report = BehaviorCache(tmp_path).verify()
        assert report["checked"] == 2 and report["bad"] == [keys["SB"].hex()]

    def test_concurrent_caches_share_one_directory(self, tmp_path):
        a, b = BehaviorCache(tmp_path), BehaviorCache(tmp_path)
        model = get_model("weak")
        sb, mp = get_test("SB"), get_test("MP")
        enumerate_behaviors(sb.program, model, cache=a)
        enumerate_behaviors(mp.program, model, cache=b)
        a.close(), b.close()

        reader = BehaviorCache(tmp_path)
        assert enumerate_behaviors(sb.program, model, cache=reader).cached
        assert enumerate_behaviors(mp.program, model, cache=reader).cached

    def test_concurrent_writers_use_distinct_temp_files(self, tmp_path, monkeypatch):
        """Two writers racing on one key each write a private temporary
        file and rename it into place: the entry ends complete whichever
        rename lands last, and no temporary file is left behind."""
        model = get_model("weak")
        program = get_test("SB").program
        result = enumerate_behaviors(program, model)
        key = behavior_cache_key(program, model, None)
        a, b = BehaviorCache(tmp_path), BehaviorCache(tmp_path)

        real_replace = os.replace
        sources = []

        def replace(src, dst):
            sources.append(Path(src))
            if len(sources) == 1:
                # a's bytes are written but not yet in place: b races in
                assert b.store(key, program, model, None, result.executions, result.stats)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert a.store(key, program, model, None, result.executions, result.stats)
        monkeypatch.undo()

        assert len(sources) == 2 and sources[0] != sources[1]
        assert [path.name for path in tmp_path.iterdir()] == [entry_path(tmp_path, key).name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the surviving entry is intact
            assert BehaviorCache(tmp_path).lookup(key) is not None


# ----------------------------------------------------------------------
# kill -9 crash-safety (acceptance criterion)


KILLER_SCRIPT = """
import sys
from repro.cache import BehaviorCache
from repro.core.enumerate import enumerate_behaviors
from repro.litmus.library import all_tests
from repro.models.registry import get_model

cache = BehaviorCache(sys.argv[1])
model = get_model("weak")
for test in all_tests():
    enumerate_behaviors(test.program, model, cache=cache)
    print(test.name, flush=True)
"""


class TestKillNineSafety:
    def test_sigkill_mid_write_never_corrupts_the_store(self, tmp_path):
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        process = subprocess.Popen(
            [sys.executable, "-c", KILLER_SCRIPT, str(cache_dir)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        survived = []
        for line in process.stdout:
            survived.append(line.strip())
            if len(survived) >= 3:
                break
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
        process.stdout.close()
        assert len(survived) >= 3

        # Restart: the store opens, every surviving acknowledged entry
        # still hits, and a possible torn tail degraded silently.
        cache = BehaviorCache(cache_dir)
        model = get_model("weak")
        hits = 0
        for name in survived:
            result = enumerate_behaviors(get_test(name).program, model, cache=cache)
            assert result.complete
            hits += 1 if result.cached else 0
        assert hits == len(survived)
        report = cache.verify()
        assert not report["bad"]
        # ...and the store still accepts writes afterwards.
        populate(cache, ("CoRR",))
        cache.close()


# ----------------------------------------------------------------------
# cache-on vs cache-off oracle equivalence


class TestOracleEquivalence:
    def test_fuzz_verdicts_identical_with_and_without_cache(self, tmp_path):
        from repro.testing.coverage import guided_one
        from repro.testing.fuzz import campaign_items

        baseline = [guided_one(item) for item in campaign_items(3, 6)]
        cached_cold = [
            guided_one(item) for item in campaign_items(3, 6, cache_dir=tmp_path)
        ]
        cached_warm = [
            guided_one(item) for item in campaign_items(3, 6, cache_dir=tmp_path)
        ]
        for off, cold, warm in zip(baseline, cached_cold, cached_warm):
            assert off["discrepancies"] == cold["discrepancies"] == warm["discrepancies"]
            assert off["skipped"] == cold["skipped"] == warm["skipped"]
        shared = BehaviorCache.shared(tmp_path)
        assert shared.counters.hits > 0  # the warm pass actually hit


# ----------------------------------------------------------------------
# service integration: the cache-hit fast path


class TestServiceFastPath:
    def test_worker_slice_hits_skip_enumeration(self, tmp_path):
        from repro.service.pool import WorkerPool

        pool = WorkerPool(workers=0, cache_dir=tmp_path / "cache")
        first = pool.run_job(SB_SOURCE, "weak", {}, None, tmp_path / "a.ckpt")
        assert first.status == "completed"
        second = pool.run_job(SB_SOURCE, "weak", {}, None, tmp_path / "b.ckpt")
        assert second.status == "completed"
        assert second.result == first.result
        shared = BehaviorCache.shared(tmp_path / "cache")
        assert shared.counters.hits >= 1

    def test_submit_fast_path_completes_instantly(self, tmp_path):
        from repro.service.client import ServiceClient
        from tests.test_service import ServerThread

        cache_dir = tmp_path / "cache"
        # Warm the cache out of band, exactly as a prior server run would.
        warm = BehaviorCache(cache_dir)
        enumerate_behaviors(
            assemble(SB_SOURCE).program, get_model("weak"), cache=warm
        )
        warm.flush()

        with ServerThread(wal_dir=tmp_path / "wal", cache_dir=cache_dir) as fixture:
            client = ServiceClient(fixture.url)
            job = client.submit(SB_SOURCE, model="weak")
            # No polling: the submission response is already terminal.
            assert job["state"] == "completed"
            assert job["result"]["executions"] == 4
            direct = enumerate_behaviors(
                assemble(SB_SOURCE).program, get_model("weak")
            )
            from repro.service.jobs import canonical_result

            assert job["result"] == canonical_result(direct)


# ----------------------------------------------------------------------
# the CLI surface


class TestCacheCLI:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_enumerate_and_cache_commands(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert self.run_cli("enumerate", "SB", "--cache-dir", cache_dir) == 0
        assert self.run_cli("enumerate", "SB", "--cache-dir", cache_dir) == 0
        capsys.readouterr()

        assert self.run_cli("cache", "stats", cache_dir) == 0
        out = capsys.readouterr().out
        assert "live entries      : 1" in out

        assert self.run_cli("cache", "verify", cache_dir) == 0
        assert "1 ok, 0 bad" in capsys.readouterr().out

        assert self.run_cli("cache", "verify", cache_dir, "--full") == 0
        assert "1 ok, 0 bad" in capsys.readouterr().out

    def test_cache_command_requires_existing_dir(self, tmp_path, capsys):
        assert self.run_cli("cache", "stats", str(tmp_path / "missing")) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_library_sweep_warm_hits(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = [
            "enumerate",
            "--library",
            "--model",
            "sc",
            "--cache-dir",
            cache_dir,
        ]
        assert self.run_cli(*args) == 0
        capsys.readouterr()
        assert self.run_cli(*args) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line.strip()]
        assert rows and all("cached" in line for line in rows)
