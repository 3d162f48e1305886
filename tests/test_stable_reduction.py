"""The stable-load reduction against the paper's full Load Resolution.

``enumerate_behaviors`` branches on one *stable* eligible load when
there is one (``core.enumerate._stable_eligible``);
``_enumerate_full_eligibility`` branches on every eligible load, as the
paper's procedure does.  On the litmus library and the mixed fuzz slice,
under every registered model, both must reach the same sorted
``loadstore_key`` list, and the reduced search may make no more
resolutions than the full one.  The seeded ``eligible-first-only``
mutant shows that the stability test is what makes this hold.
"""

from __future__ import annotations

import pytest

from repro.core.enumerate import (
    _enumerate_full_eligibility,
    _stable_eligible,
    enumerate_behaviors,
)
from repro.core.execution import Execution
from repro.isa.assembler import assemble_program
from repro.litmus.library import all_tests, get_test
from repro.models import available_models, get_model
from repro.testing.fuzzgen import MIXED, derive_seed, generate_program, profile_for_index
from repro.testing.mutants import get_mutant
from repro.testing.oracles import FUZZ_LIMITS

FUZZ_SEED = 7
FUZZ_SLICE = range(60)


def _keys(result) -> list[str]:
    return sorted(repr(execution.loadstore_key()) for execution in result.executions)


def _programs():
    for test in all_tests():
        yield test.name, test.program
    for index in FUZZ_SLICE:
        yield f"fuzz-{index}", generate_program(
            derive_seed(FUZZ_SEED, index), profile_for_index(MIXED, index)
        )


def _assert_reduction_holds(program, model_name: str) -> tuple[int, int]:
    model = get_model(model_name)
    full = _enumerate_full_eligibility(program, model, FUZZ_LIMITS)
    stable = enumerate_behaviors(program, model, FUZZ_LIMITS)
    assert full.complete and stable.complete, (program.name, model_name)
    assert _keys(stable) == _keys(full), (program.name, model_name)
    assert stable.stats.resolutions <= full.stats.resolutions, (program.name, model_name)
    assert stable.stats.consistent()
    return stable.stats.resolutions, full.stats.resolutions


@pytest.mark.parametrize("model_name", available_models())
def test_reduced_search_matches_full_search(model_name):
    reduced = full = 0
    for _, program in _programs():
        stable_resolutions, full_resolutions = _assert_reduction_holds(program, model_name)
        reduced += stable_resolutions
        full += full_resolutions
    assert reduced < full


def _initial(name: str, model_name: str) -> Execution:
    return Execution.initial(get_test(name).program, get_model(model_name))


def test_independent_loads_branch_on_one_stable_load():
    """SB under weak: every store has executed with nothing before it,
    so both loads are stable and the search branches on the first."""
    behavior = _initial("SB", "weak")
    eligible = behavior.eligible_loads()
    assert len(eligible) == 2
    assert _stable_eligible(behavior) == eligible[:1]


def test_a_store_that_may_still_become_a_candidate_blocks_stability():
    """LB under sc: each thread's store waits behind its own unresolved
    load, so each load could still observe the other thread's store.
    Neither load is stable, and both are branched on."""
    behavior = _initial("LB", "sc")
    eligible = behavior.eligible_loads()
    assert len(eligible) == 2
    assert _stable_eligible(behavior) == eligible


def test_an_unknown_store_address_blocks_stability():
    """A store whose address comes from an unresolved load may still
    write to any location, so it blocks every load it is not ⊑-after:
    the loads of x and y come first, but only the load of p, which the
    store waits for, is stable."""
    program = assemble_program(
        "\n".join(
            [
                "test unknown-address",
                "init p=x",
                "thread P0",
                "    r2 = L x",
                "thread P1",
                "    r3 = L y",
                "thread P2",
                "    r1 = L p",
                "    S r1, 1",
            ]
        )
    )
    behavior = Execution.initial(program, get_model("weak"))
    eligible = behavior.eligible_loads()
    assert [load.addr for load in eligible] == ["x", "y", "p"]
    assert _stable_eligible(behavior) == eligible[2:]


def test_a_pending_branch_blocks_stability():
    """A thread waiting on an unresolved branch may still generate
    stores, so while it waits no load is stable."""
    program = assemble_program(
        "\n".join(
            [
                "test pending-branch",
                "thread P0",
                "    r1 = L x",
                "    bnez r1, done",
                "    S y, 1",
                "done:",
                "thread P1",
                "    r2 = L y",
                "thread P2",
                "    r3 = L z",
            ]
        )
    )
    behavior = Execution.initial(program, get_model("weak"))
    assert any(state.waiting_branch is not None for state in behavior.threads)
    eligible = behavior.eligible_loads()
    assert len(eligible) == 3
    assert _stable_eligible(behavior) == eligible


@pytest.mark.parametrize("model_name", ("sc", "tso", "pso"))
def test_branching_on_the_first_eligible_load_loses_an_lb_behavior(model_name):
    """The naive reduction the stability test guards against."""
    program, model = get_test("LB").program, get_model(model_name)
    healthy = enumerate_behaviors(program, model)
    with get_mutant("eligible-first-only").applied():
        mutated = enumerate_behaviors(program, model)
    assert set(_keys(mutated)) < set(_keys(healthy))
