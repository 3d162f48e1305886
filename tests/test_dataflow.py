"""Tests for the ≺-linearization (dataflow) machine."""

import pytest
from hypothesis import given, settings

from repro.errors import ReproError
from repro.core.enumerate import enumerate_behaviors
from repro.litmus.library import get_test
from repro.models.registry import get_model
from repro.operational.dataflow import run_dataflow
from repro.operational.sc import run_sc

from tests.conftest import build_branchy
from tests.test_properties import small_programs
from tests.test_properties_extended import annotated_programs, pointer_programs


class TestGuards:
    def test_bypass_models_rejected(self, sb_program):
        with pytest.raises(ReproError):
            run_dataflow(sb_program, "tso")

    def test_branchy_programs_rejected(self):
        with pytest.raises(ReproError):
            run_dataflow(build_branchy(), "weak")


class TestEquivalenceOnClassics:
    @pytest.mark.parametrize("test_name", ["SB", "MP", "LB", "CoRR", "IRIW", "SB+fences", "INC+INC", "SB+rmw", "MP+ra"])
    @pytest.mark.parametrize("model_name", ["sc", "weak", "weak-corr"])
    def test_matches_axiomatic(self, test_name, model_name):
        program = get_test(test_name).program
        axiomatic = enumerate_behaviors(program, get_model(model_name)).register_outcomes()
        assert run_dataflow(program, model_name).outcomes == axiomatic

    @pytest.mark.parametrize("test_name, count", [("SB", 4), ("IRIW", 16)])
    def test_weak_outcome_counts(self, test_name, count):
        assert len(run_dataflow(get_test(test_name).program, "weak").outcomes) == count

    def test_sc_table_reduces_to_interleaving(self, sb_program):
        assert run_dataflow(sb_program, "sc").outcomes == run_sc(sb_program).outcomes

    def test_lb_reachable_operationally(self):
        """The machine realizes LB's (1,1): both stores execute before
        either load, because the weak table does not order load→store."""
        program = get_test("LB").program
        both_one = frozenset({(("P0", "r1"), 1), (("P1", "r2"), 1)})
        assert both_one in run_dataflow(program, "weak").outcomes
        assert both_one not in run_dataflow(program, "sc").outcomes


class TestPropertyEquivalence:
    @given(small_programs())
    @settings(max_examples=30, deadline=None)
    def test_random_programs_weak(self, program):
        axiomatic = enumerate_behaviors(program, get_model("weak")).register_outcomes()
        assert run_dataflow(program, "weak").outcomes == axiomatic

    @given(annotated_programs())
    @settings(max_examples=25, deadline=None)
    def test_random_annotated_programs(self, program):
        axiomatic = enumerate_behaviors(program, get_model("weak")).register_outcomes()
        assert run_dataflow(program, "weak").outcomes == axiomatic

    @given(pointer_programs())
    @settings(max_examples=20, deadline=None)
    def test_random_pointer_programs(self, program):
        """Register-indirect addresses: the machine's wait-for-address rule
        must coincide with the §5.1 non-speculative dependencies."""
        axiomatic = enumerate_behaviors(program, get_model("weak")).register_outcomes()
        assert run_dataflow(program, "weak").outcomes == axiomatic
