"""Tests for the analysis layer: model comparison and well-sync."""

import time

import pytest

from repro.analysis.compare import (
    check_inclusion_chain,
    outcome_count_table,
    outcome_sets,
)
from repro.analysis.wellsync import check_well_synchronized
from repro.core.enumerate import EnumerationLimits, ExhaustionReason
from repro.errors import EnumerationError
from repro.experiments.wellsync_exp import build_guarded_mp
from repro.litmus.families import independent_writers
from repro.litmus.library import get_test



class TestCompare:
    def test_outcome_sets(self, sb_program):
        sets = outcome_sets(sb_program, ("sc", "weak"))
        assert sets.count("sc") == 3
        assert sets.count("weak") == 4
        assert sets.included("sc", "weak")
        assert not sets.included("weak", "sc")
        assert len(sets.only_in("weak", "sc")) == 1

    def test_inclusion_chain_on_sb_mp(self, sb_program, mp_program):
        report = check_inclusion_chain(
            [sb_program, mp_program], ("sc", "tso", "pso", "weak")
        )
        assert report.holds

    def test_chain_violation_detected(self, sb_program):
        """Reversing the chain must report violations."""
        report = check_inclusion_chain([sb_program], ("weak", "sc"))
        assert not report.holds
        assert "weak" in report.violations[0]

    def test_count_table_rendering(self, sb_program):
        table = outcome_count_table([sb_program], ("sc", "weak"))
        assert "SB" in table and "3" in table and "4" in table


class TestWellSync:
    def test_mp_is_racy(self, mp_program):
        report = check_well_synchronized(mp_program, "weak", {"flag"})
        assert not report.well_synchronized
        assert any(race.location == "x" for race in report.races)

    def test_guarded_mp_well_synchronized(self):
        report = check_well_synchronized(build_guarded_mp(True), "weak", {"flag"})
        assert report.well_synchronized
        assert report.resolutions_checked > 0

    def test_guard_without_fence_racy_under_weak(self):
        report = check_well_synchronized(build_guarded_mp(False), "weak", {"flag"})
        assert not report.well_synchronized

    def test_guarded_mp_well_synchronized_under_sc(self):
        """Under SC the branch + program order suffice (no fence needed)."""
        report = check_well_synchronized(build_guarded_mp(False), "sc", {"flag"})
        assert report.well_synchronized

    def test_sync_location_races_allowed(self, mp_program):
        report = check_well_synchronized(mp_program, "weak", {"flag", "x"})
        assert report.well_synchronized  # everything declared sync

    def test_cas_lock_protects_counter(self):
        report = check_well_synchronized(get_test("CAS-lock").program, "weak", {"l"})
        assert report.well_synchronized

    def test_summary_text(self, mp_program):
        report = check_well_synchronized(mp_program, "weak", {"flag"})
        assert "RACY" in report.summary()

    @pytest.mark.parametrize(
        "program, limits, reason",
        [
            # 3.6 s to a verdict when the deadline was ignored
            (
                independent_writers(4).program,
                EnumerationLimits(deadline_seconds=0.05),
                ExhaustionReason.DEADLINE,
            ),
            (
                get_test("MP").program,
                EnumerationLimits(max_executions=2),
                ExhaustionReason.EXECUTION_BUDGET,
            ),
            (
                get_test("MP").program,
                EnumerationLimits(max_behaviors=3),
                ExhaustionReason.BEHAVIOR_BUDGET,
            ),
        ],
        ids=["deadline", "max-executions", "max-behaviors"],
    )
    def test_exhausted_budget_raises_instead_of_a_verdict(self, program, limits, reason):
        started = time.monotonic()
        with pytest.raises(EnumerationError) as caught:
            check_well_synchronized(program, "weak", limits=limits)
        assert caught.value.reason is reason
        assert time.monotonic() - started < 1.5
