"""Tests for the behavior-enumeration driver (§4.1)."""

import pytest

from repro.errors import EnumerationError
from repro.core.enumerate import (
    EnumerationLimits,
    ExhaustionReason,
    _enumerate_full_eligibility,
    enumerate_behaviors,
)
from repro.isa.dsl import ProgramBuilder
from repro.litmus.library import all_tests
from repro.models.registry import get_model

from tests.conftest import build_loop


def _keys(result) -> list[str]:
    return sorted(repr(e.loadstore_key()) for e in result.executions)


def assert_identical(expected, result):
    assert result.complete, result.status
    assert [e.loadstore_key() for e in result.executions] == [
        e.loadstore_key() for e in expected.executions
    ]
    assert result.register_outcomes() == expected.register_outcomes()


@pytest.fixture(scope="module")
def baseline():
    """Default (digest-dedup) results for the whole library under weak."""
    return {
        (test.name, "weak"): enumerate_behaviors(test.program, get_model("weak"))
        for test in all_tests()
    }


class TestBasicEnumeration:
    def test_sb_counts(self, sb_program):
        assert len(enumerate_behaviors(sb_program, get_model("sc"))) == 3
        assert len(enumerate_behaviors(sb_program, get_model("weak"))) == 4

    def test_single_threaded_program_deterministic(self):
        builder = ProgramBuilder("det")
        t = builder.thread("T")
        t.store("x", 1)
        t.load("r1", "x")
        t.store("y", "r1")
        for model in ("sc", "tso", "pso", "weak"):
            result = enumerate_behaviors(builder.build(), get_model(model))
            assert len(result) == 1, model
            assert result.executions[0].final_registers()[("T", "r1")] == 1

    def test_no_loads_single_behavior(self):
        builder = ProgramBuilder("stores-only")
        builder.thread("A").store("x", 1)
        builder.thread("B").store("x", 2)
        result = enumerate_behaviors(builder.build(), get_model("weak"))
        # No observations: one execution (the stores stay unordered).
        assert len(result) == 1

    def test_all_executions_completed(self, sb_program, weak):
        for execution in enumerate_behaviors(sb_program, weak).executions:
            assert execution.completed()

    def test_register_outcomes_shape(self, sb_program, weak):
        outcomes = enumerate_behaviors(sb_program, weak).register_outcomes()
        assert all(isinstance(outcome, frozenset) for outcome in outcomes)
        sample = next(iter(outcomes))
        (key, value) = next(iter(sample))
        assert key[0] in ("P0", "P1") and key[1] in ("r1", "r2")
        assert value in (0, 1)


class TestDeduplication:
    def test_duplicates_detected(self, sb_program, weak):
        """The paper's procedure (every eligible load branched on)
        reaches some behaviors twice and drops the copies."""
        stats = _enumerate_full_eligibility(sb_program, weak).stats
        assert stats.duplicates > 0

    def test_stable_search_has_the_same_executions_and_no_more_resolutions(
        self, sb_program, weak
    ):
        """The stable-load reduction reaches SB's executions without
        reaching any behavior twice."""
        full = _enumerate_full_eligibility(sb_program, weak)
        stable = enumerate_behaviors(sb_program, weak)
        assert _keys(stable) == _keys(full)
        assert stable.stats.resolutions <= full.stats.resolutions
        assert stable.stats.duplicates == 0

    def test_resolution_order_does_not_change_results(self):
        """Two loads resolvable in either order yield one behavior set."""
        builder = ProgramBuilder("order")
        builder.thread("W").store("x", 1)
        reader = builder.thread("R")
        reader.load("r1", "x")
        reader.load("r2", "x")
        result = enumerate_behaviors(builder.build(), get_model("weak"))
        outcomes = result.register_outcomes()
        values = {
            (dict(o)[("R", "r1")], dict(o)[("R", "r2")]) for o in outcomes
        }
        # all four combinations: WEAK reorders same-address loads
        assert values == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_digest_dedup_matches_exact_dedup(self, baseline, monkeypatch):
        """The blake2b-digest dedup set admits exactly the same behavior
        set as full canonical keys would: over the whole library, every
        digest the search derives maps to one canonical state key and
        every key to one digest (no collisions)."""
        from repro.core import enumerate as engine

        pairs = set()
        real_dedup_key = engine._dedup_key

        def recording(execution):
            digest = real_dedup_key(execution)
            pairs.add((digest, execution.state_key()))
            return digest

        monkeypatch.setattr(engine, "_dedup_key", recording)
        for test in all_tests():
            result = enumerate_behaviors(test.program, get_model("weak"))
            assert_identical(baseline[(test.name, "weak")], result)
        digests = {digest for digest, _ in pairs}
        keys = {key for _, key in pairs}
        assert len(digests) == len(keys) == len(pairs) > len(all_tests())


class TestLimits:
    def test_execution_limit_enforced_strict(self, sb_program, weak):
        with pytest.raises(EnumerationError):
            enumerate_behaviors(
                sb_program, weak, EnumerationLimits(max_executions=1), strict=True
            )

    def test_behavior_limit_enforced_strict(self, sb_program, weak):
        with pytest.raises(EnumerationError):
            enumerate_behaviors(
                sb_program, weak, EnumerationLimits(max_behaviors=2), strict=True
            )

    def test_execution_limit_degrades_by_default(self, sb_program, weak):
        result = enumerate_behaviors(
            sb_program, weak, EnumerationLimits(max_executions=1)
        )
        assert not result.complete
        assert result.reason is ExhaustionReason.EXECUTION_BUDGET
        assert len(result) == 1  # the budget is an exact upper bound

    def test_behavior_limit_is_exact_upper_bound(self, sb_program, weak):
        """Regression for the historical off-by-one: the old code only
        raised after exploring N+1 behaviors and kept N+1 executions."""
        for budget in (1, 2, 5):
            result = enumerate_behaviors(
                sb_program, weak, EnumerationLimits(max_behaviors=budget)
            )
            assert result.stats.explored == budget
            assert result.reason is ExhaustionReason.BEHAVIOR_BUDGET

    def test_budget_equal_to_need_is_complete(self, sb_program, weak):
        """A budget exactly matching the search's need does not trigger."""
        full = enumerate_behaviors(sb_program, weak)
        result = enumerate_behaviors(
            sb_program,
            weak,
            EnumerationLimits(
                max_behaviors=full.stats.explored, max_executions=len(full)
            ),
        )
        assert result.complete and result.reason is None
        assert len(result) == len(full)

    def test_node_limit_drops_runaway_branches(self):
        """A spin loop bounded only by the node limit terminates with
        truncated branches counted, not an exception from a child."""
        builder = ProgramBuilder("spin")
        w = builder.thread("W")
        w.store("flag", 1)
        s = builder.thread("S")
        s.label("top")
        s.load("r1", "flag")
        s.beqz("r1", "top")
        result = enumerate_behaviors(
            builder.build(),
            get_model("sc"),
            EnumerationLimits(max_nodes_per_thread=12),
        )
        assert result.stats.truncated > 0
        assert all(
            e.final_registers()[("S", "r1")] == 1 for e in result.executions
        )


class TestLoopPrograms:
    def test_bounded_loop_outcomes(self):
        result = enumerate_behaviors(build_loop(), get_model("sc"))
        outcomes = {
            (dict(o)[("P1", "r1")], dict(o)[("P1", "r2")])
            for o in result.register_outcomes()
        }
        # Under SC, once the spin observes 1 the final check reads 1 too;
        # if the countdown expires both may be 0, or the final check may
        # catch the flag late.
        assert (1, 1) in outcomes
        assert (0, 0) in outcomes
        assert (1, 0) not in outcomes

    def test_loop_weak_allows_stale_recheck(self):
        result = enumerate_behaviors(build_loop(), get_model("weak"))
        outcomes = {
            (dict(o)[("P1", "r1")], dict(o)[("P1", "r2")])
            for o in result.register_outcomes()
        }
        assert (1, 0) in outcomes  # same-address load-load reordering
