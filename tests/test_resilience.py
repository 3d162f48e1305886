"""Tests for the resilience layer: budgets, graceful degradation,
checkpoints/resume, cancellation, and stuck-behavior surfacing."""

import hashlib
import json
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.errors import EnumerationError, StuckBehaviorWarning
from repro.core.enumerate import (
    CHECKPOINT_FORMAT_VERSION,
    CancellationToken,
    EnumerationCheckpoint,
    EnumerationLimits,
    ExhaustionReason,
    enumerate_behaviors,
    resume_enumeration,
)
from repro.core.execution import Execution
from repro.experiments.scaling import chain_program
from repro.isa.disassembler import disassemble
from repro.isa.dsl import ProgramBuilder
from repro.litmus.library import get_test
from repro.models.registry import get_model
from repro.storage import seal

from tests.conftest import build_sb


def build_heavy3():
    """A 3-thread program whose behavior set far exceeds small budgets."""
    builder = ProgramBuilder("heavy3")
    w = builder.thread("W")
    w.store("x", 1)
    w.store("y", 1)
    p = builder.thread("P")
    p.load("r1", "x")
    p.load("r2", "y")
    p.store("z", 1)
    q = builder.thread("Q")
    q.load("r3", "z")
    q.load("r4", "y")
    q.load("r5", "x")
    return builder.build()


class _CancelAfterPolls(CancellationToken):
    """Fault injector: reports cancelled after a fixed number of polls,
    simulating a supervisor that pulls the plug mid-search."""

    def __init__(self, polls: int) -> None:
        super().__init__()
        self._polls = polls

    @property
    def cancelled(self) -> bool:
        if self._polls > 0:
            self._polls -= 1
            return False
        return True


class TestGracefulDegradation:
    def test_oversized_three_thread_program_degrades(self):
        """The ISSUE acceptance case: a 3-thread litmus under a
        50-behavior budget returns a labeled, non-empty partial result
        instead of raising or hanging."""
        result = enumerate_behaviors(
            build_heavy3(), get_model("weak"), EnumerationLimits(max_behaviors=50)
        )
        assert result.complete is False
        assert result.reason is ExhaustionReason.BEHAVIOR_BUDGET
        assert len(result.executions) > 0
        assert result.checkpoint is not None
        assert result.status == "partial (behavior-budget)"

    def test_strict_restores_raising(self):
        with pytest.raises(EnumerationError) as info:
            enumerate_behaviors(
                build_heavy3(),
                get_model("weak"),
                EnumerationLimits(max_behaviors=50),
                strict=True,
            )
        assert info.value.reason is ExhaustionReason.BEHAVIOR_BUDGET

    def test_partial_outcomes_are_a_subset(self):
        program = build_heavy3()
        weak = get_model("weak")
        full = enumerate_behaviors(program, weak).register_outcomes()
        partial = enumerate_behaviors(
            program, weak, EnumerationLimits(max_behaviors=50)
        ).register_outcomes()
        assert partial <= full

    def test_deadline_expiry_returns_partial(self):
        result = enumerate_behaviors(
            build_heavy3(),
            get_model("weak"),
            EnumerationLimits(deadline_seconds=0.0),
        )
        assert result.complete is False
        assert result.reason is ExhaustionReason.DEADLINE
        assert result.checkpoint is not None

    def test_memory_budget_returns_partial(self):
        result = enumerate_behaviors(
            build_heavy3(),
            get_model("weak"),
            EnumerationLimits(max_memory_mb=0.001),
        )
        assert result.complete is False
        assert result.reason is ExhaustionReason.MEMORY

    def test_memory_budget_charges_kept_executions(self):
        """fanout-5x1/weak keeps 7,776 executions on a short worklist:
        with only the worklist and the dedup set charged, a 5 MB budget
        let it complete.  Kept executions are charged too, so it stops,
        and its checkpoint resumes to the full set without the limit."""
        program = chain_program(5, 1)
        weak = get_model("weak")
        partial = enumerate_behaviors(program, weak, EnumerationLimits(max_memory_mb=5))
        assert partial.complete is False
        assert partial.reason is ExhaustionReason.MEMORY
        assert 0 < len(partial) < 7776
        resumed = resume_enumeration(partial.checkpoint, EnumerationLimits())
        assert resumed.complete and len(resumed) == 7776

    def test_resumed_kept_executions_are_charged(self):
        """A resume charges the executions its checkpoint already kept:
        resumed under the budget that stopped it, the search stops again
        at once."""
        partial = enumerate_behaviors(
            chain_program(4, 1), get_model("weak"), EnumerationLimits(max_memory_mb=0.5)
        )
        assert partial.reason is ExhaustionReason.MEMORY
        again = resume_enumeration(partial.checkpoint)
        assert again.reason is ExhaustionReason.MEMORY
        assert again.stats.explored == partial.stats.explored

    def test_cancellation_token(self):
        token = CancellationToken()
        token.cancel()
        result = enumerate_behaviors(build_sb(), get_model("weak"), token=token)
        assert result.complete is False
        assert result.reason is ExhaustionReason.CANCELLED

    def test_complete_result_has_no_checkpoint(self):
        result = enumerate_behaviors(build_sb(), get_model("weak"))
        assert result.complete and result.reason is None
        assert result.checkpoint is None
        assert result.status == "complete"


class TestCheckpointResume:
    def test_resume_matches_unbudgeted_run(self):
        """Exhaust a tiny budget, resume until done, and check the final
        outcome set is identical to an unbudgeted enumeration."""
        program = build_heavy3()
        weak = get_model("weak")
        full = enumerate_behaviors(program, weak)

        result = enumerate_behaviors(
            program, weak, EnumerationLimits(max_behaviors=25)
        )
        rounds = 0
        while not result.complete:
            rounds += 1
            assert rounds < 100, "resume failed to converge"
            bigger = EnumerationLimits(
                max_behaviors=result.checkpoint.stats.explored + 25
            )
            result = resume_enumeration(result.checkpoint, bigger)
        assert rounds > 1  # the budget actually forced multiple resumes
        assert result.register_outcomes() == full.register_outcomes()
        assert len(result) == len(full)
        assert result.stats.explored == full.stats.explored

    def test_mid_search_cancel_then_resume(self):
        """The token fires after a few pops: the partial result must be
        a resumable checkpoint that reaches the unbudgeted run's exact
        execution set."""
        program = build_heavy3()
        weak = get_model("weak")
        full = enumerate_behaviors(program, weak)

        result = enumerate_behaviors(program, weak, token=_CancelAfterPolls(polls=6))
        assert result.complete is False
        assert result.reason is ExhaustionReason.CANCELLED
        assert result.checkpoint is not None
        assert result.checkpoint.worklist
        assert result.stats.explored > 0

        resumed = resume_enumeration(result.checkpoint, EnumerationLimits())
        assert resumed.complete
        assert [e.loadstore_key() for e in resumed.executions] == [
            e.loadstore_key() for e in full.executions
        ]

    def test_checkpoint_round_trips_through_disk(self, tmp_path):
        program = build_heavy3()
        weak = get_model("weak")
        partial = enumerate_behaviors(
            program, weak, EnumerationLimits(max_behaviors=50)
        )
        path = tmp_path / "search.ckpt"
        partial.checkpoint.save(path)
        loaded = EnumerationCheckpoint.load(path)
        resumed = resume_enumeration(loaded, EnumerationLimits())
        full = enumerate_behaviors(program, weak)
        assert resumed.complete
        assert resumed.register_outcomes() == full.register_outcomes()

    def test_load_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.pkl"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(EnumerationError):
            EnumerationCheckpoint.load(path)

    def test_load_rejects_corrupt_pickle(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(b"\x80definitely not a pickle stream")
        with pytest.raises(EnumerationError):
            EnumerationCheckpoint.load(path)

    def test_load_rejects_truncated_pickle(self, tmp_path):
        """A checkpoint chopped mid-stream (what a non-atomic save could
        have left behind after a crash) is rejected cleanly."""
        partial = enumerate_behaviors(
            build_heavy3(), get_model("weak"), EnumerationLimits(max_behaviors=50)
        )
        path = tmp_path / "truncated.ckpt"
        partial.checkpoint.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(EnumerationError):
            EnumerationCheckpoint.load(path)

    def test_resume_with_original_limits_stops_again(self):
        partial = enumerate_behaviors(
            build_heavy3(), get_model("weak"), EnumerationLimits(max_behaviors=50)
        )
        again = resume_enumeration(partial.checkpoint)
        assert not again.complete
        assert again.reason is ExhaustionReason.BEHAVIOR_BUDGET


#: argv: checkpoint path, library test, max_behaviors of the cut.
CUT_IN_ANOTHER_PROCESS = """
import sys
from repro.core.enumerate import EnumerationLimits, enumerate_behaviors
from repro.litmus.library import get_test
from repro.models.registry import get_model

partial = enumerate_behaviors(
    get_test(sys.argv[2]).program,
    get_model("weak"),
    EnumerationLimits(max_behaviors=int(sys.argv[3])),
)
assert not partial.complete
partial.checkpoint.save(sys.argv[1])
"""


def _cut_in_another_process(path: Path, test_name: str, budget: int) -> None:
    env = dict(os.environ, PYTHONHASHSEED="1")
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    subprocess.run(
        [sys.executable, "-c", CUT_IN_ANOTHER_PROCESS, str(path), test_name, str(budget)],
        env=env, check=True, timeout=120,
    )


class TestCrossProcessResume:
    def test_checkpoint_cut_under_another_hash_seed_resumes_exactly(self, tmp_path):
        """The dedup digests never depend on ``hash()``: a checkpoint cut
        in a process with another string-hash seed resumes here to the
        same executions and the same explored/duplicate totals as an
        uninterrupted run (a hash-dependent digest would miss every
        seen state and re-explore it).  IRIW/weak explores 31 states, so
        the cut comes at 15."""
        path = tmp_path / "iriw.ckpt"
        _cut_in_another_process(path, "IRIW", 15)
        checkpoint = EnumerationCheckpoint.load(path)
        assert checkpoint.stats.explored == 15
        resumed = resume_enumeration(checkpoint, EnumerationLimits())
        full = enumerate_behaviors(get_test("IRIW").program, get_model("weak"))
        assert resumed.complete
        assert [e.loadstore_key() for e in resumed.executions] == [
            e.loadstore_key() for e in full.executions
        ]
        assert resumed.stats.explored == full.stats.explored
        assert resumed.stats.duplicates == full.stats.duplicates

    def test_cut_before_duplicates_under_another_hash_seed_resumes_exactly(self, tmp_path):
        """The same on dekker/weak, whose stable-load search still meets
        duplicates, all of them after a cut at 6: only digests that match
        across processes keep the resumed totals equal to the full run's
        (IRIW/weak has no duplicate to miss)."""
        path = tmp_path / "dekker.ckpt"
        _cut_in_another_process(path, "dekker", 6)
        checkpoint = EnumerationCheckpoint.load(path)
        full = enumerate_behaviors(get_test("dekker").program, get_model("weak"))
        assert checkpoint.stats.duplicates == 0 < full.stats.duplicates
        resumed = resume_enumeration(checkpoint, EnumerationLimits())
        assert resumed.complete
        assert [e.loadstore_key() for e in resumed.executions] == [
            e.loadstore_key() for e in full.executions
        ]
        assert resumed.stats == full.stats


class TestCheckpointVersioning:
    """The sealed format-version stamp: save writes it, load rejects a
    file stamped with another version, or a bare pickle from before the
    seal, without unpickling it.  Every refusal names the version this
    build supports."""

    def _partial_checkpoint(self):
        return enumerate_behaviors(
            build_heavy3(), get_model("weak"), EnumerationLimits(max_behaviors=50)
        ).checkpoint

    def _refusal(self, path, data: bytes) -> str:
        path.write_bytes(data)
        with pytest.raises(EnumerationError) as info:
            EnumerationCheckpoint.load(path)
        message = str(info.value)
        assert f"supports version {CHECKPOINT_FORMAT_VERSION}" in message
        assert "re-run the original enumeration" in message
        return message

    def _stamped(self, version: int) -> bytes:
        """A pickled checkpoint, sealed as a build stamping ``version``
        would seal it."""
        return seal(b"RCKP", version, pickle.dumps(self._partial_checkpoint()))

    def test_save_stamps_current_version(self, tmp_path):
        path = tmp_path / "search.ckpt"
        checkpoint = self._partial_checkpoint()
        checkpoint.save(path)
        raw = path.read_bytes()
        assert raw[:5] == b"RCKP" + bytes((CHECKPOINT_FORMAT_VERSION,))
        assert raw[5:13] == hashlib.blake2b(raw[13:], digest_size=8).digest()
        assert EnumerationCheckpoint.load(path).stats == checkpoint.stats

    def test_load_rejects_unknown_version(self, tmp_path):
        message = self._refusal(tmp_path / "future.ckpt", self._stamped(255))
        assert "has an unrecognized header" in message

    def test_load_rejects_version_2_checkpoint(self, tmp_path):
        """A version-2 checkpoint may carry ``dedup_exact=True`` and a
        dedup set of full state-key tuples that the digest-only search
        would never match; it is refused rather than resumed."""
        message = self._refusal(tmp_path / "v2.ckpt", self._stamped(2))
        assert "has an unrecognized header" in message

    def test_load_rejects_version_3_checkpoint(self, tmp_path):
        """A version-3 dedup set holds digests of the whole ``repr`` of
        each state key; the piecewise digests of version 4 never match
        them, so resuming would re-explore every state already seen.  It
        is refused rather than resumed."""
        message = self._refusal(tmp_path / "v3.ckpt", self._stamped(3))
        assert "has an unrecognized header" in message

    def test_load_rejects_version_4_checkpoint(self, tmp_path):
        """A version-4 worklist and dedup set come from the search that
        branched on every eligible load; resuming one under the
        stable-load rule would mix two searches' prefixes.  It is
        refused rather than resumed."""
        message = self._refusal(tmp_path / "v4.ckpt", self._stamped(4))
        assert "has an unrecognized header" in message

    def test_load_rejects_pre_versioning_checkpoint(self, tmp_path):
        """Versions 1-5 (and files from before any stamp) were bare
        pickles; they carry no sealed header and are refused without
        being unpickled."""
        message = self._refusal(
            tmp_path / "legacy.ckpt", pickle.dumps(self._partial_checkpoint())
        )
        assert "has an unrecognized header" in message

    def test_load_rejects_version_1_checkpoint(self, tmp_path):
        """A checkpoint stamped with version 1, whatever its payload,
        is refused by its header alone."""
        message = self._refusal(tmp_path / "v1.ckpt", self._stamped(1))
        assert "has an unrecognized header" in message

    def test_load_rejects_version_6_checkpoint(self, tmp_path):
        """Version 6 was a sealed pickle of the checkpoint object; this
        build reads records and refuses it without decoding it."""
        message = self._refusal(tmp_path / "v6.ckpt", self._stamped(6))
        assert "has an unrecognized header" in message


def _record_change(change):
    """A payload edit: ``change(record)`` on the decoded record, which
    is then re-encoded (and sealed with a valid checksum)."""

    def edit(payload: bytes) -> bytes:
        record = json.loads(payload)
        change(record)
        return json.dumps(record).encode()

    return edit


def _foreign_request(record):
    record["request"]["program"] = disassemble(get_test("SB").program)


#: (id, payload -> crafted payload): every one carries a valid checksum.
CHECKPOINT_DAMAGE = [
    ("not-json", lambda payload: b"not json"),
    ("invalid-json", lambda payload: payload[:-1]),
    ("not-an-object", lambda payload: b"[]"),
    ("missing-field", _record_change(lambda record: record.pop("seen"))),
    ("dedup-not-a-bool", _record_change(lambda record: record.update(dedup="yes"))),
    ("seen-not-hex", _record_change(lambda record: record.update(seen=[7]))),
    ("seen-not-a-list", _record_change(lambda record: record.update(seen={}))),
    ("worklist-not-logs", _record_change(lambda record: record.update(worklist=["n2"]))),
    ("stats-not-ints", _record_change(lambda record: record["stats"].update(explored="1"))),
    ("request-of-another-key", _record_change(_foreign_request)),
    ("log-names-a-missing-node", _record_change(lambda record: record["worklist"].__setitem__(0, [[99, 0]]))),
    ("log-reads-a-non-visible-store", _record_change(lambda record: record["worklist"].__setitem__(0, [[4, 3]]))),
]


class TestCheckpointRecordDamage:
    """Crafted payloads that the checksum cannot catch: malformed JSON,
    wrong field types, a request that hashes to another key, and logs
    that name a missing node or a store that is not visible (LB+data's
    n3 stores a loaded value).  Each is refused with
    :class:`EnumerationError` before a search could resume from it."""

    @staticmethod
    def _saved(path: Path) -> bytes:
        partial = enumerate_behaviors(
            get_test("LB+data").program, get_model("weak"), EnumerationLimits(max_behaviors=1)
        )
        partial.checkpoint.save(path)
        return path.read_bytes()[13:]

    def test_record_round_trips_byte_for_byte(self, tmp_path):
        path = tmp_path / "search.ckpt"
        self._saved(path)
        saved = path.read_bytes()
        loaded = EnumerationCheckpoint.load(path)
        loaded.save(tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == saved

    @pytest.mark.parametrize(
        "craft", [case[1] for case in CHECKPOINT_DAMAGE], ids=[case[0] for case in CHECKPOINT_DAMAGE]
    )
    def test_crafted_record_is_refused(self, tmp_path, craft):
        path = tmp_path / "search.ckpt"
        payload = craft(self._saved(path))
        path.write_bytes(seal(b"RCKP", CHECKPOINT_FORMAT_VERSION, payload))
        with pytest.raises(EnumerationError, match="cannot load checkpoint"):
            EnumerationCheckpoint.load(path)


class TestStatsAccounting:
    def test_counters_consistent_on_complete_runs(self):
        for name in ("SB", "MP", "WRC"):
            for model in ("sc", "tso", "weak"):
                stats = enumerate_behaviors(
                    get_test(name).program, get_model(model)
                ).stats
                assert stats.consistent(), (name, model, stats)

    def test_counters_consistent_on_partial_runs(self):
        for budget in (1, 10, 50, 100):
            stats = enumerate_behaviors(
                build_heavy3(),
                get_model("weak"),
                EnumerationLimits(max_behaviors=budget),
            ).stats
            assert stats.consistent(), (budget, stats)


class TestStuckSurfacing:
    def test_stuck_behavior_emits_warning(self, monkeypatch):
        """A behavior with no eligible load is an engine bug; force one
        by stubbing eligibility and check it is loudly surfaced."""
        monkeypatch.setattr(Execution, "eligible_loads", lambda self: [])
        with pytest.warns(StuckBehaviorWarning):
            result = enumerate_behaviors(build_sb(), get_model("weak"))
        assert result.stats.stuck > 0
        assert result.stats.consistent()

    def test_healthy_run_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            enumerate_behaviors(build_sb(), get_model("weak"))
