"""Dedup digests only below a multi-load branch.

``enumerate_behaviors`` marks its initial behavior with
``Execution.unique_lineage``; ``_branch`` passes the mark to each child of
a branch on a single load and computes no dedup digest for a marked
child.  Such a child resolved that load to a store no sibling chose, so
it equals no other state the search generates (DESIGN.md, "Stable-load
reduction").  These tests check that claim against digests computed for
every child anyway, check that a search stopped in the middle of a
branch resumes to the uninterrupted statistics, and check that the
searches that start from any other behavior still digest every child.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.solver import solve_behaviors
from repro.analysis.wellsync import check_well_synchronized
from repro.core import enumerate as engine
from repro.core.enumerate import (
    EnumerationCheckpoint,
    EnumerationLimits,
    enumerate_behaviors,
    resume_enumeration,
)
from repro.core.execution import Execution
from repro.core.valuespec import enumerate_value_speculation
from repro.experiments.scaling import chain_program
from repro.litmus.library import all_tests, get_test
from repro.models import get_model
from repro.testing.corpus import DEFAULT_CORPUS_DIR, load_corpus
from repro.testing.fuzzgen import MIXED, derive_seed, generate_program, profile_for_index
from repro.testing.oracles import FUZZ_LIMITS

MODELS = ("sc", "tso", "pso", "weak", "weak-spec")


def _programs():
    for test in all_tests():
        yield test.program
    for entry in load_corpus(DEFAULT_CORPUS_DIR):
        yield entry.program
    for index in range(60):
        yield generate_program(derive_seed(7, index), profile_for_index(MIXED, index))


def _keys(result) -> list[str]:
    return sorted(repr(execution.loadstore_key()) for execution in result.executions)


def test_a_unique_lineage_child_equals_no_other_generated_state(monkeypatch):
    """Every child is digested anyway, right after its resolution (what
    ``_dedup_key`` would see).  A child with a unique lineage must share
    its digest with no other child and not with the initial behavior; the
    other children's repeats are exactly the search's duplicates."""
    children: list[tuple[Execution, bytes]] = []
    real_resolve = Execution.resolve_load

    def resolve_and_digest(self, load_nid, store_nid):
        real_resolve(self, load_nid, store_nid)
        children.append((self, self.dedup_digest()))

    monkeypatch.setattr(Execution, "resolve_load", resolve_and_digest)
    runs = unique = 0
    for program in _programs():
        for model_name in MODELS:
            model = get_model(model_name)
            children.clear()
            result = enumerate_behaviors(program, model, FUZZ_LIMITS)
            assert result.complete, (program.name, model_name)
            initial = Execution.initial(program, model, FUZZ_LIMITS.max_nodes_per_thread)
            counts = Counter(digest for _, digest in children)
            counts[initial.dedup_digest()] += 1
            repeats = 0
            seen = {initial.dedup_digest()}
            for child, digest in children:
                if child.unique_lineage:
                    unique += 1
                    assert counts[digest] == 1, (program.name, model_name)
                elif digest in seen:
                    repeats += 1
                seen.add(digest)
            assert repeats == result.stats.duplicates, (program.name, model_name)
            runs += 1
    assert runs == 640
    assert unique > 1_000


def _interrupted_fanout(monkeypatch) -> EnumerationCheckpoint:
    """fanout-4x1/weak stopped by a ``MemoryError`` at its 200th
    resolution, halfway through expanding a behavior."""
    real_resolve = Execution.resolve_load
    calls = 0

    def failing(self, load_nid, store_nid):
        nonlocal calls
        calls += 1
        if calls == 200:
            raise MemoryError
        real_resolve(self, load_nid, store_nid)

    with monkeypatch.context() as patch:
        patch.setattr(Execution, "resolve_load", failing)
        partial = enumerate_behaviors(chain_program(4, 1), get_model("weak"))
    assert partial.reason is engine.ExhaustionReason.MEMORY
    return partial.checkpoint


@pytest.mark.parametrize("through_file", [False, True])
def test_a_branch_cut_short_resumes_to_the_uninterrupted_search(
    monkeypatch, tmp_path, through_file
):
    """The requeued behavior's children regenerate on resume and must
    meet the ones it already pushed in ``seen_states``: the resumed
    search explores what one uninterrupted search does, plus the four
    regenerated children it drops as duplicates."""
    straight = enumerate_behaviors(chain_program(4, 1), get_model("weak"))
    checkpoint = _interrupted_fanout(monkeypatch)
    if through_file:
        path = tmp_path / "fanout.ckpt"
        checkpoint.save(path)
        checkpoint = EnumerationCheckpoint.load(path)
    resumed = resume_enumeration(checkpoint, EnumerationLimits())
    assert resumed.complete
    assert _keys(resumed) == _keys(straight)
    stats = resumed.stats
    assert (stats.explored, stats.completed, stats.duplicates) == (781, 625, 4)
    assert (straight.stats.explored, straight.stats.duplicates) == (781, 0)
    assert stats.consistent()


def _assert_every_child_digested(monkeypatch, run) -> int:
    """Run ``run()`` with every ``_branch`` call checked: no pushed child
    has a unique lineage, and every child was digested (one digest per
    child pushed or dropped as a duplicate).  Returns the child count."""
    real_branch = engine._branch
    real_key = engine._dedup_key
    digests = children = 0

    def counting_key(execution):
        nonlocal digests
        digests += 1
        return real_key(execution)

    def checked_branch(behavior, loads, dedup, worklist, seen_states, stats, *rest):
        nonlocal children
        before, duplicates, calls = len(worklist), stats.duplicates, digests
        reason = real_branch(behavior, loads, dedup, worklist, seen_states, stats, *rest)
        pushed = worklist[before:]
        assert not any(child.unique_lineage for child in pushed)
        made = len(pushed) + stats.duplicates - duplicates
        assert digests - calls == made
        children += made
        return reason

    monkeypatch.setattr(engine, "_dedup_key", counting_key)
    monkeypatch.setattr(engine, "_branch", checked_branch)
    run()
    return children


# MP/sc (well-sync) and MP+addr/sc (value speculation) branch on a single
# load first, so a flag set on their initial behaviors would show.
@pytest.mark.parametrize(
    "name, model_name", [("MP", "sc"), ("WRC", "sc"), ("SB", "weak"), ("dekker", "weak")]
)
def test_well_sync_check_digests_every_child(monkeypatch, name, model_name):
    program = get_test(name).program
    assert _assert_every_child_digested(
        monkeypatch, lambda: check_well_synchronized(program, model_name)
    )


@pytest.mark.parametrize("name", ["MP+addr", "LB+data", "MP", "dekker"])
def test_value_speculation_digests_every_child(monkeypatch, name):
    program = get_test(name).program
    assert _assert_every_child_digested(
        monkeypatch, lambda: enumerate_value_speculation(program, "sc")
    )


def test_restricted_solver_search_digests_every_child(monkeypatch):
    branchy = [test.program for test in all_tests() if test.program.has_branches()]
    assert branchy

    def solve_all():
        for program in branchy:
            assert solve_behaviors(program, "weak").complete

    assert _assert_every_child_digested(monkeypatch, solve_all)
