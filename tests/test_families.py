"""Tests for the parametric litmus families."""

import pytest

from repro.errors import ProgramError
from repro.core.enumerate import enumerate_behaviors
from repro.litmus.families import independent_writers, mp_chain, sb_ring
from repro.litmus.library import get_test
from repro.litmus.runner import run_litmus
from repro.models.registry import get_model

MODELS = ("sc", "tso", "pso", "weak")


class TestSbRing:
    def test_minimum_size(self):
        with pytest.raises(ProgramError):
            sb_ring(1)

    def test_ring_of_two_is_sb(self):
        ring = sb_ring(2)
        classic = get_test("SB")
        for model_name in MODELS:
            assert (
                run_litmus(ring, model_name).holds
                == run_litmus(classic, model_name).holds
            )

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("model_name", MODELS)
    def test_expectations_uniform_in_n(self, n, model_name):
        verdict = run_litmus(sb_ring(n), model_name)
        assert verdict.matches_expectation, (n, model_name)

    @pytest.mark.parametrize("n", [2, 3])
    def test_fenced_ring_forbidden(self, n):
        for model_name in MODELS:
            assert not run_litmus(sb_ring(n, fenced=True), model_name).holds

    def test_behavior_count_grows(self):
        weak = get_model("weak")
        small = len(enumerate_behaviors(sb_ring(2).program, weak))
        large = len(enumerate_behaviors(sb_ring(3).program, weak))
        assert large > small


class TestMpChain:
    def test_minimum_size(self):
        with pytest.raises(ProgramError):
            mp_chain(0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("model_name", MODELS)
    def test_expectations_uniform_in_n(self, n, model_name):
        verdict = run_litmus(mp_chain(n), model_name)
        assert verdict.matches_expectation, (n, model_name)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fenced_chain_forbidden_under_weak(self, n):
        assert not run_litmus(mp_chain(n, fenced=True), "weak").holds

    def test_chain_of_one_is_mp(self):
        chain = mp_chain(1)
        classic = get_test("MP")
        for model_name in MODELS:
            assert (
                run_litmus(chain, model_name).holds
                == run_litmus(classic, model_name).holds
            )


class TestIndependentWriters:
    def test_minimum_size(self):
        with pytest.raises(ProgramError):
            independent_writers(1)

    @pytest.mark.parametrize("readers", [2, 3])
    @pytest.mark.parametrize("model_name", MODELS)
    def test_expectations(self, readers, model_name):
        verdict = run_litmus(independent_writers(readers), model_name)
        assert verdict.matches_expectation, (readers, model_name)


class TestScalingFamilies:
    """The program families the TAB-SCALE sweep measures."""

    @pytest.mark.parametrize("pairs", [1, 2])
    def test_sb_chain_has_four_to_the_pairs_behaviors(self, pairs):
        from repro.experiments.scaling import sb_chain

        result = enumerate_behaviors(sb_chain(pairs), get_model("weak"))
        assert result.complete and len(result) == 4**pairs

    def test_every_family_member_has_behaviors(self):
        from repro.experiments.scaling import chain_program

        cases = [(chain_program(writers), "weak") for writers in (1, 2, 3, 4)]
        cases += [(chain_program(3), name) for name in MODELS]
        cases += [(sb_ring(n).program, "tso") for n in (2, 3)]
        cases += [(mp_chain(hops).program, "weak") for hops in (1, 2)]
        for program, model_name in cases:
            result = enumerate_behaviors(program, get_model(model_name))
            assert result.complete and len(result) >= 1, (program.name, model_name)

    def test_sc_admits_fewer_figure5_behaviors_than_weak(self):
        """SC's eager orderings shrink the behavior set (§4.2)."""
        from repro.experiments.fig5 import build_program

        sc = enumerate_behaviors(build_program(), get_model("sc"))
        weak = enumerate_behaviors(build_program(), get_model("weak"))
        assert len(sc) < len(weak)
