"""Coverage-guided campaign tests (:mod:`repro.testing.coverage`) plus
the PR's cross-subsystem seams: persistent partial-search checkpoints
in the behavior cache, and replay-context memoization."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import BehaviorCache
from repro.core.enumerate import (
    EnumerationLimits,
    enumerate_behaviors,
    resume_enumeration,
)
from repro.errors import ReproError
from repro.isa.assembler import assemble_program
from repro.isa.disassembler import disassemble
from repro.models.registry import get_model
from repro.storage import checksum
from repro.testing.coverage import (
    CampaignConfig,
    CampaignState,
    CoverageGrid,
    coverage_report,
    load_campaign,
    model_tables_digest,
    mutation_candidates,
    open_campaign,
    plan_batch,
    program_digest,
    program_edge_kinds,
    run_guided_campaign,
    save_state,
)
from repro.testing.fuzz import replay_entry, replay_paths
from repro.testing.fuzzgen import MIXED_ORDER, generate_program, get_profile
from repro.testing.oracles import ORACLES, OracleContext, oracle_table

#: The cheap oracle pair campaign tests run with (single-model
#: axiomatic comparisons; no solver).
FAST_ORACLES = ("axiomatic-vs-sc", "axiomatic-vs-tso")

CORPUS_DIR = Path(__file__).parent / "corpus"


def _fingerprint(campaign_dir: Path) -> tuple:
    state = load_campaign(campaign_dir)
    return (
        state.grid.to_json(),
        [record.to_json() for record in state.corpus],
        state.budget_spent,
        state.next_index,
    )


def _run(campaign_dir, budget, *, resume=False, jobs=1, batch_size=4, seed=7):
    return run_guided_campaign(
        campaign_dir,
        seed=seed,
        budget=budget,
        batch_size=batch_size,
        jobs=jobs,
        oracle_names=FAST_ORACLES,
        resume=resume,
    )


# ---------------------------------------------------------------------------
# edge kinds and grid primitives


SOURCE = """\
test ek
init x=0 y=0

thread P0
    S.rel x, 1
    fence st-ld
    r1 = L.acq y

thread P1
    S y, 2
    r2 = L x
"""


def test_edge_kinds_tags_and_pairs():
    kinds = program_edge_kinds(assemble_program(SOURCE))
    assert "St.rel" in kinds
    assert "F.st-ld" in kinds
    assert "Ld.acq" in kinds
    # Adjacent memory-op pairs, fences included.
    assert "St.rel>F.st-ld" in kinds
    assert "F.st-ld>Ld.acq" in kinds
    assert "St>Ld" in kinds
    assert "branch" not in kinds


def test_edge_kinds_branch_marker():
    program = generate_program(3, get_profile("branchy"))
    if program.has_branches():
        assert "branch" in program_edge_kinds(program)


def test_grid_add_merge_project_roundtrip():
    grid = CoverageGrid()
    c1 = ("St", "sc", "complete", "axiomatic-vs-sc:ok")
    c2 = ("St", "tso", "complete", "axiomatic-vs-tso:ok")
    assert grid.add({c1, c2}) == {c1, c2}
    assert grid.add({c1}) == frozenset()
    assert grid.cells[c1] == 2 and len(grid) == 2
    assert grid.project() == {("St", "sc", "complete"), ("St", "tso", "complete")}
    assert grid.min_count({c1}) == 2 and grid.min_count({c1, c2}) == 1

    other = CoverageGrid.from_json(grid.to_json())
    assert other.cells == grid.cells
    other.merge(grid)
    assert other.cells[c1] == 4

    assert other.is_superset_of(grid)
    grid.add({("Ld", "sc", "complete", "axiomatic-vs-sc:ok")})
    assert not other.is_superset_of(grid)


def test_program_digest_ignores_name():
    a = assemble_program(SOURCE)
    b = assemble_program(SOURCE.replace("test ek", "test other-name"))
    assert a.name != b.name
    assert program_digest(a) == program_digest(b)
    c = assemble_program(SOURCE.replace("S y, 2", "S y, 3"))
    assert program_digest(a) != program_digest(c)


def test_model_tables_digest_is_stable_hex():
    digest = model_tables_digest()
    assert digest == model_tables_digest()
    int(digest, 16)
    assert len(digest) == 32


# ---------------------------------------------------------------------------
# mutation operators


def test_mutation_candidates_valid_and_deterministic():
    program = generate_program(16, get_profile("relaxed"))
    candidates = mutation_candidates(program)
    assert candidates
    texts = [disassemble(candidate) for candidate in candidates]
    # Deterministic order.
    assert texts == [disassemble(c) for c in mutation_candidates(program)]
    # Every candidate is a well-formed program that survives a
    # disassemble → assemble round-trip.
    for text in texts:
        assert disassemble(assemble_program(text)) == text
    # Both halves are present: strictly smaller reductions and strictly
    # larger amplifications (fence insertion).
    base = program.instruction_count()
    sizes = {assemble_program(text).instruction_count() for text in texts}
    assert any(size < base for size in sizes)
    assert any(size > base for size in sizes)


# ---------------------------------------------------------------------------
# campaign state machinery (synthetic items — no enumeration needed)


def _synthetic_state(tmp_path: Path) -> tuple[CampaignState, Path]:
    config = CampaignConfig(seed=1, oracles=FAST_ORACLES, tables=model_tables_digest())
    directory = tmp_path / "camp"
    state = open_campaign(directory, config, resume=False)
    return state, directory


def test_state_roundtrip_and_crc(tmp_path):
    state, directory = _synthetic_state(tmp_path)
    state.grid.add({("St", "sc", "complete", "axiomatic-vs-sc:ok")})
    state.seen.update({b"\x02" * 8, b"\x01" * 8})
    state.profile_programs["relaxed"] = 3
    state.profile_novelty["relaxed"] = 5
    state.next_index = 4
    state.budget_spent = 4
    save_state(state, directory)

    loaded = load_campaign(directory)
    assert loaded.grid.cells == state.grid.cells
    assert loaded.next_index == 4 and loaded.budget_spent == 4
    assert loaded.profile_programs == {"relaxed": 3}
    assert loaded.seen == {b"\x01" * 8, b"\x02" * 8}
    on_disk = json.loads((directory / "state.json").read_text())
    assert on_disk["format"] == 3
    assert on_disk["seen"] == ["01" * 8, "02" * 8]  # exact, sorted

    # Any body tamper breaks the checksum.
    path = directory / "state.json"
    payload = json.loads(path.read_text())
    payload["budget_spent"] = 999
    path.write_text(json.dumps(payload))
    with pytest.raises(ReproError, match="checksum"):
        load_campaign(directory)


def test_format_2_state_is_refused(tmp_path):
    """A format-2 ``state.json`` (its config still carrying the mutation
    rate and corpus limit, now constants) is refused, not reinterpreted."""
    _state, directory = _synthetic_state(tmp_path)
    path = directory / "state.json"
    payload = json.loads(path.read_text())
    del payload["crc"]
    payload["format"] = 2
    payload["config"].update(mutate_rate=0.45, corpus_limit=256)
    payload["crc"] = checksum(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ReproError, match="unsupported format 2"):
        load_campaign(directory)


def test_seen_digests_are_exact_and_steer_planning(tmp_path):
    """The campaign dedups on an exact set of digest prefixes: a digest
    is seen once added and never before, and planning steps past a seen
    draw to the slot's next candidate."""
    state, _ = _synthetic_state(tmp_path)
    (first,) = plan_batch(state, 1)
    assert bytes.fromhex(first.digest)[:8] not in state.seen
    state.seen.add(bytes.fromhex(first.digest)[:8])
    (second,) = plan_batch(state, 1)
    assert second.index == first.index and second.digest != first.digest
    assert bytes.fromhex(second.digest)[:8] not in state.seen


def test_open_campaign_requires_resume_and_matching_config(tmp_path):
    state, directory = _synthetic_state(tmp_path)
    config = state.config
    with pytest.raises(ReproError, match="--resume"):
        open_campaign(directory, config, resume=False)
    # Resuming with the pinned config succeeds.
    assert open_campaign(directory, config, resume=True).config == config
    # Any planning parameter mismatch refuses.
    from dataclasses import replace

    with pytest.raises(ReproError, match="config mismatch"):
        open_campaign(directory, replace(config, seed=2), resume=True)
    with pytest.raises(ReproError, match="config mismatch"):
        open_campaign(directory, replace(config, batch_size=99), resume=True)
    # A different model-tables digest means the grid is incomparable.
    with pytest.raises(ReproError, match="model tables"):
        open_campaign(directory, replace(config, tables="0" * 32), resume=True)


def test_wal_fold_skips_already_checkpointed_batches(tmp_path):
    from repro.service.wal import WriteAheadLog

    state, directory = _synthetic_state(tmp_path)
    item = {
        "index": 0,
        "seed": 5,
        "profile": "relaxed",
        "source": "fresh",
        "digest": "ab" * 16,
        "text": "test t\nthread P0:\n  st x, 1\n",
        "cells": [["St", "sc", "complete", "axiomatic-vs-sc:ok"]],
        "fails": 0,
    }
    wal = WriteAheadLog(directory / "campaign.wal", fsync=False)
    wal.append("batch", "batch-0", {"start": 0, "items": [item]})
    # A stale record (start behind the checkpoint cursor) is skipped; a
    # matching one folds.
    loaded = load_campaign(directory)
    assert loaded.budget_spent == 1 and loaded.next_index == 1
    assert len(loaded.corpus) == 1
    assert loaded.corpus[0].new_cells == (("St", "sc", "complete", "axiomatic-vs-sc:ok"),)

    # Checkpoint past it: the same WAL record must now be ignored.
    save_state(loaded, directory)
    again = load_campaign(directory)
    assert again.budget_spent == 1 and again.next_index == 1
    wal.close()


def test_plan_batch_pure_function_of_state(tmp_path):
    state, _ = _synthetic_state(tmp_path)
    first = plan_batch(state, 6)
    second = plan_batch(state, 6)
    assert first == second
    assert [p.index for p in first] == list(range(6))
    # The first batch walks the round-robin, so profiles are diverse.
    assert len({p.profile for p in first}) >= 3


# ---------------------------------------------------------------------------
# guided campaigns: determinism and resume (the expensive seams)


def test_split_run_equals_uninterrupted_and_jobs_insensitive(tmp_path):
    _run(tmp_path / "whole", 8)
    _run(tmp_path / "split", 4)
    _run(tmp_path / "split", 4, resume=True)
    _run(tmp_path / "jobs", 8, jobs=2)

    whole = _fingerprint(tmp_path / "whole")
    assert _fingerprint(tmp_path / "split") == whole
    assert _fingerprint(tmp_path / "jobs") == whole
    # The checkpoint files themselves are byte-identical.
    assert (tmp_path / "whole" / "state.json").read_bytes() == (
        tmp_path / "split" / "state.json"
    ).read_bytes()


def test_budget_accumulates_and_report_counts(tmp_path):
    report = _run(tmp_path / "camp", 4)
    assert report.resumed_from == 0 and len(report.verdicts) == 4
    report = _run(tmp_path / "camp", 4, resume=True)
    assert report.resumed_from == 4
    state = load_campaign(tmp_path / "camp")
    assert state.budget_spent == 8 and state.next_index == 8
    assert len(state.grid) > 0
    text = coverage_report(tmp_path / "camp")
    assert "budget spent : 8" in text and "grid cells" in text


@settings(max_examples=4, deadline=None)
@given(
    split=st.sampled_from([0, 3]),
    jobs_a=st.integers(min_value=1, max_value=3),
    jobs_b=st.integers(min_value=1, max_value=3),
)
def test_grid_insensitive_to_split_and_jobs(tmp_path_factory, split, jobs_a, jobs_b):
    """Hypothesis property: however a 6-program campaign is sharded
    across runs (at batch-window boundaries — the only slicing resume
    itself ever produces) and across worker processes, the resulting
    coverage grid, corpus, and cursor are identical."""
    tmp_path = tmp_path_factory.mktemp("fuzzcov-prop")
    reference = tmp_path / "ref"
    _run(reference, 6, batch_size=3, seed=11)
    sliced = tmp_path / "sliced"
    if split:
        _run(sliced, split, batch_size=3, seed=11, jobs=jobs_a)
    _run(sliced, 6 - split, batch_size=3, seed=11, jobs=jobs_b, resume=bool(split))
    assert _fingerprint(sliced) == _fingerprint(reference)


def test_odd_budget_slice_realigns_to_window_grid(tmp_path):
    """A run whose budget is not a multiple of the batch size commits a
    short window; the next run completes that window and returns to the
    fixed window grid (next_index back on a batch_size multiple)."""
    campaign = tmp_path / "odd"
    _run(campaign, 1, batch_size=3, seed=11)
    state = load_campaign(campaign)
    assert state.next_index == 1
    _run(campaign, 5, batch_size=3, seed=11, resume=True)
    state = load_campaign(campaign)
    assert state.next_index == 6 and state.budget_spent == 6
    # From here on the campaign is indistinguishable from any aligned
    # one: a further aligned run matches a reference that diverged only
    # inside the first window.
    assert len(state.grid) > 0


@pytest.mark.slow
def test_kill9_mid_campaign_resumes_identically(tmp_path):
    """The ISSUE's cross-subsystem seam: cache-enabled parallel workers
    (jobs=2) under a campaign, SIGKILL mid-flight, resume — the grid and
    corpus must equal an uninterrupted run's exactly."""
    reference = tmp_path / "ref"
    _run(reference, 12, batch_size=3, seed=13)

    campaign = tmp_path / "killed"
    cache_dir = tmp_path / "cache"
    code = (
        "from repro.testing.coverage import run_guided_campaign\n"
        f"run_guided_campaign({str(campaign)!r}, seed=13, budget=12, batch_size=3, "
        f"jobs=2, cache_dir={str(cache_dir)!r}, oracle_names={FAST_ORACLES!r})\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    process = subprocess.Popen([sys.executable, "-c", code], env=env)
    time.sleep(2.5)
    if process.poll() is None:
        process.send_signal(signal.SIGKILL)
    process.wait()

    state = load_campaign(campaign)
    spent = 0 if state is None else state.budget_spent
    remaining = 12 - spent
    if remaining > 0:
        _run(campaign, remaining, batch_size=3, seed=13, resume=spent > 0)
    assert _fingerprint(campaign) == _fingerprint(reference)


def test_corpus_files_exported_and_loadable(tmp_path):
    from repro.testing.corpus import load_corpus

    _run(tmp_path / "camp", 6)
    state = load_campaign(tmp_path / "camp")
    entries = load_corpus(tmp_path / "camp" / "corpus")
    assert entries  # novelty in the first batches always banks something
    by_digest = {record.digest for record in state.corpus}
    for entry in entries:
        assert entry.cells  # the coverage header survives the round-trip
        assert program_digest(entry.program) in by_digest
    # Every checked program's digest prefix is in the exact seen set.
    assert {bytes.fromhex(digest)[:8] for digest in by_digest} <= state.seen
    assert 0 < len(state.seen) <= state.budget_spent


# ---------------------------------------------------------------------------
# budget-exhausted searches with a cache: nothing partial is memoized


def test_partial_checkpoint_resume_byte_identical(tmp_path):
    """A budget-exhausted search run with a cache resumes through its
    own checkpoint to the unbudgeted result, stats included; the cache
    holds only the complete result, stored by a later complete call."""
    program = generate_program(33, get_profile("relaxed"))
    model = get_model("weak")
    full = enumerate_behaviors(program, model)
    assert full.complete

    cache = BehaviorCache(tmp_path / "cache")
    small = EnumerationLimits(max_behaviors=200)
    partial = enumerate_behaviors(program, model, small, cache=cache)
    assert not partial.complete and cache.counters.puts == 0
    assert not (tmp_path / "cache").exists()

    resumed = resume_enumeration(partial.checkpoint, EnumerationLimits())
    assert resumed.complete
    keys = lambda r: sorted(repr(e.loadstore_key()) for e in r.executions)
    assert keys(resumed) == keys(full)
    # Byte-identical including the cumulative stats: the resumed search
    # continued exactly where it stopped.
    assert resumed.stats == full.stats
    cold = enumerate_behaviors(program, model, cache=cache)
    assert not cold.cached and cache.counters.puts == 1
    again = enumerate_behaviors(program, model, cache=cache)
    assert again.cached and keys(again) == keys(full)
    assert sorted(path.suffix for path in (tmp_path / "cache").iterdir()) == [".bin"]


def test_partial_checkpoint_same_budget_verdict_stable(tmp_path):
    program = generate_program(33, get_profile("relaxed"))
    model = get_model("weak")
    cache = BehaviorCache(tmp_path / "cache")
    small = EnumerationLimits(max_behaviors=200)
    first = enumerate_behaviors(program, model, small, cache=cache)
    second = enumerate_behaviors(program, model, small, cache=cache)
    keys = lambda r: sorted(repr(e.loadstore_key()) for e in r.executions)
    assert keys(first) == keys(second)
    assert first.complete == second.complete and first.reason == second.reason


# ---------------------------------------------------------------------------
# satellite: replay-context memoization


def test_replay_contexts_memoized_per_program_and_mutant():
    paths = sorted(CORPUS_DIR.glob("*.litmus"))[:3]
    from repro.testing.corpus import load_entry

    entries = [load_entry(path) for path in paths]
    memo: dict = {}
    replay_entry(entries[0], context_cache=memo)
    assert len(memo) == 1
    (context,) = memo.values()
    assert isinstance(context, OracleContext)
    # The same entry replayed again reuses the same context object.
    replay_entry(entries[0], context_cache=memo)
    assert len(memo) == 1 and next(iter(memo.values())) is context
    # A different program gets its own context.
    replay_entry(entries[1], context_cache=memo)
    assert len(memo) == 2


def test_replay_mutant_and_healthy_contexts_never_shared():
    mutant_paths = [
        path
        for path in sorted(CORPUS_DIR.glob("*.litmus"))
        if "# fuzz-mutant:" in path.read_text()
    ]
    if not mutant_paths:
        pytest.skip("no mutant entries banked")
    from repro.testing.corpus import load_entry

    entry = load_entry(mutant_paths[0])
    memo: dict = {}
    replay_entry(entry, mutated=True, context_cache=memo)
    replay_entry(entry, mutated=False, context_cache=memo)
    # One context under the mutant, a distinct one on the healthy tree.
    assert len(memo) == 2
    assert {key[1] for key in memo} == {entry.mutant, None}


@pytest.mark.slow
def test_replay_full_corpus_within_wall_clock_budget():
    """Regression gate for the replay-staleness fix: replaying the whole
    banked corpus with the shared context memo stays well under a minute
    (it takes ~5s healthy; the bound only catches a reintroduced
    re-derivation blowup, not environmental noise)."""
    paths = sorted(CORPUS_DIR.glob("*.litmus"))
    start = time.monotonic()
    results = replay_paths(paths)
    elapsed = time.monotonic() - start
    assert len(results) == len(paths)
    for entry, discrepancies, _skipped in results:
        if entry.mutant:
            assert discrepancies, f"{entry.path}: mutant kill lost"
        else:
            assert not discrepancies, f"{entry.path}: healthy replay dirty"
    assert elapsed < 60.0, f"corpus replay took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# oracle coverage metadata


def test_every_oracle_declares_coverage_labels():
    from repro.models.registry import available_models

    models = set(available_models())
    for oracle in ORACLES:
        assert oracle.touches, f"{oracle.name} declares no coverage labels"
        for label in oracle.touches:
            assert label in models, f"{oracle.name}: unknown label {label}"


def test_oracle_table_has_coverage_column():
    table = oracle_table()
    assert "coverage labels" in table.splitlines()[0]
    assert "`sc`" in table


def test_enumeration_reasons_labels():
    program = assemble_program(SOURCE)
    context = OracleContext(program, EnumerationLimits())
    context.result("sc")
    context.result("weak")
    reasons = context.enumeration_reasons()
    assert reasons == {"sc": "complete", "weak": "complete"}
