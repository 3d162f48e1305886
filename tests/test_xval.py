"""Integration: axiomatic enumeration == operational machines.

This is the repository's strongest correctness argument: on every
program in the litmus library, the reordering-table + Store Atomicity
formulation produces exactly the same final-register outcomes as the
classic hardware-style machines.
"""

import pytest

from repro.core.enumerate import enumerate_behaviors
from repro.litmus.library import all_tests
from repro.models.registry import get_model
from repro.operational.sc import run_sc
from repro.operational.storebuffer import run_pso, run_tso

_TESTS = all_tests()


@pytest.mark.parametrize("test", _TESTS, ids=[t.name for t in _TESTS])
def test_sc_equivalence(test):
    axiomatic = enumerate_behaviors(test.program, get_model("sc")).register_outcomes()
    assert axiomatic == run_sc(test.program).outcomes


@pytest.mark.parametrize("test", _TESTS, ids=[t.name for t in _TESTS])
def test_tso_equivalence(test):
    axiomatic = enumerate_behaviors(test.program, get_model("tso")).register_outcomes()
    assert axiomatic == run_tso(test.program).outcomes


@pytest.mark.parametrize("test", _TESTS, ids=[t.name for t in _TESTS])
def test_pso_equivalence(test):
    axiomatic = enumerate_behaviors(test.program, get_model("pso")).register_outcomes()
    assert axiomatic == run_pso(test.program).outcomes


@pytest.mark.parametrize("test", _TESTS, ids=[t.name for t in _TESTS])
def test_model_inclusion_chain(test):
    """sc ⊆ tso ⊆ pso ⊆ weak on outcome sets."""
    outcomes = {
        name: enumerate_behaviors(test.program, get_model(name)).register_outcomes()
        for name in ("sc", "tso", "pso", "weak")
    }
    assert outcomes["sc"] <= outcomes["tso"] <= outcomes["pso"] <= outcomes["weak"]
