"""Tests for value speculation (safe vs naive machines)."""

import time

import pytest
from hypothesis import given, settings

from repro.errors import EnumerationError, ReproError
from repro.core.enumerate import EnumerationLimits, ExhaustionReason, enumerate_behaviors
from repro.core.valuespec import closure_satisfiable, enumerate_value_speculation
from repro.litmus.families import independent_writers
from repro.litmus.library import get_test
from repro.models.registry import get_model

from tests.test_properties import small_programs

STALE_MP = frozenset({(("P1", "r1"), 1), (("P1", "r2"), 0)})
BOTH_ZERO_SB = frozenset({(("P0", "r1"), 0), (("P1", "r2"), 0)})


class TestSafeSpeculation:
    @pytest.mark.parametrize("model_name", ["sc", "weak", "weak-corr"])
    def test_equals_standard_on_mp(self, mp_program, model_name):
        standard = enumerate_behaviors(
            mp_program, get_model(model_name)
        ).register_outcomes()
        speculated = enumerate_value_speculation(mp_program, model_name, validate=True)
        assert standard == speculated.register_outcomes()
        assert speculated.stats.consistent()

    def test_mp_under_sc_has_three_behaviors(self, mp_program):
        assert len(enumerate_value_speculation(mp_program, "sc", validate=True)) == 3

    def test_equals_standard_on_rmw_program(self):
        program = get_test("INC+INC").program
        standard = enumerate_behaviors(program, get_model("sc")).register_outcomes()
        speculated = enumerate_value_speculation(program, "sc").register_outcomes()
        assert standard == speculated

    def test_all_safe_executions_closure_satisfiable(self, sb_program):
        result = enumerate_value_speculation(sb_program, "weak", validate=True)
        assert all(closure_satisfiable(e) for e in result.executions)
        assert not result.illegal


class TestNaiveSpeculation:
    def test_mp_stale_read_appears_and_is_flagged(self, mp_program):
        naive = enumerate_value_speculation(mp_program, "sc", validate=False)
        assert STALE_MP in naive.register_outcomes()
        assert STALE_MP in naive.violating_outcomes()
        assert naive.stats.unvalidated > 0
        assert naive.stats.consistent()

    def test_sb_both_zero_flagged(self, sb_program):
        naive = enumerate_value_speculation(sb_program, "sc", validate=False)
        assert BOTH_ZERO_SB in naive.violating_outcomes()
        assert naive.stats.unvalidated > 0

    def test_legal_outcomes_equal_standard(self, mp_program):
        naive = enumerate_value_speculation(mp_program, "sc", validate=False)
        standard = enumerate_behaviors(mp_program, get_model("sc")).register_outcomes()
        assert naive.legal_outcomes() == standard

    def test_weak_absorbs_the_mp_violation(self, mp_program):
        """Under WEAK the stale read is a LEGAL behavior, so the naive
        machine's extra behaviors shrink as the model weakens."""
        naive = enumerate_value_speculation(mp_program, "weak", validate=False)
        assert STALE_MP in naive.legal_outcomes()


class TestGuards:
    def test_bypass_models_rejected(self, sb_program):
        with pytest.raises(ReproError):
            enumerate_value_speculation(sb_program, "tso")

    def test_deadline_raises_promptly(self):
        program = independent_writers(4).program  # 3.6 s when the deadline was ignored
        limits = EnumerationLimits(deadline_seconds=0.05)
        started = time.monotonic()
        with pytest.raises(EnumerationError) as caught:
            enumerate_value_speculation(program, "weak", limits=limits)
        assert caught.value.reason is ExhaustionReason.DEADLINE
        assert time.monotonic() - started < 1.5


class TestPropertySafeEqualsStandard:
    @given(small_programs())
    @settings(max_examples=25, deadline=None)
    def test_safe_speculation_complete_and_sound(self, program):
        """On random programs: validated speculation ≡ standard under SC."""
        standard = enumerate_behaviors(program, get_model("sc")).register_outcomes()
        speculated = enumerate_value_speculation(program, "sc").register_outcomes()
        assert standard == speculated

    @given(small_programs())
    @settings(max_examples=20, deadline=None)
    def test_naive_legal_subset_is_standard(self, program):
        """Naive machine: legal outcomes ≡ standard; violations only add."""
        naive = enumerate_value_speculation(program, "sc", validate=False)
        standard = enumerate_behaviors(program, get_model("sc")).register_outcomes()
        assert naive.legal_outcomes() == standard
