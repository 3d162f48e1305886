"""Tests for the constraint-based behavior solver.

Three layers: the CDCL SAT core against brute force (pigeonhole,
unit-propagation chains, assumption cores, random 3-SAT, AllSAT
model counting), the end-to-end ``solve_behaviors`` ==
``enumerate_behaviors`` byte-identity (canonical litmus tests,
property-based over the fuzz generator's programs × four models), and
the unsat-core explainer's verdicts, minimal cores, and witnesses on
the canonical forbidden/reachable outcomes.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.solver import (
    SatSolver,
    encode_program,
    explain_forbidden,
    solve_behaviors,
    solve_behaviors_with_stats,
)
from repro.analysis.solver.sat import _luby
from repro.core.enumerate import EnumerationLimits, enumerate_behaviors
from repro.litmus.library import all_tests, get_test
from repro.litmus.runner import run_litmus
from repro.models import get_model
from repro.testing.fuzzgen import generate_program, profile_for_index

MODELS = ("sc", "tso", "pso", "weak")


def _keys(result) -> list[str]:
    return sorted(repr(e.loadstore_key()) for e in result.executions)


# ----------------------------------------------------------------------
# the CDCL core


def _pigeonhole(n_pigeons: int, n_holes: int) -> SatSolver:
    solver = SatSolver()
    var = {
        (p, h): solver.new_var()
        for p in range(n_pigeons)
        for h in range(n_holes)
    }
    for p in range(n_pigeons):
        solver.add_clause([var[(p, h)] for h in range(n_holes)])
    for h in range(n_holes):
        for p1, p2 in itertools.combinations(range(n_pigeons), 2):
            solver.add_clause([-var[(p1, h)], -var[(p2, h)]])
    return solver


def test_luby_sequence():
    assert [_luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
    ]


def test_pigeonhole_unsat():
    # n+1 pigeons in n holes forces clause learning + restarts.
    for n in (3, 4, 5, 6):
        assert _pigeonhole(n + 1, n).solve() is False
    assert _pigeonhole(4, 4).solve() is True


def test_unit_propagation_chain():
    solver = SatSolver()
    variables = [solver.new_var() for _ in range(50)]
    for a, b in zip(variables, variables[1:]):
        solver.add_clause([-a, b])
    solver.add_clause([variables[0]])
    assert solver.solve()
    assert all(solver.value(v) for v in variables)


def test_assumption_core_subset():
    solver = SatSolver()
    a, b, c, d = (solver.new_var() for _ in range(4))
    solver.add_clause([-a, -b])
    assert solver.solve([a, c, b]) is False
    assert set(solver.core()) <= {a, b}
    # incremental: the same solver stays usable after an UNSAT answer
    assert solver.solve([a, c]) is True
    assert solver.solve([d]) is True


def test_random_3sat_vs_brute_force():
    rng = random.Random(0)
    for trial in range(200):
        n_vars = rng.randint(3, 8)
        clauses = [
            [rng.choice([1, -1]) * rng.randint(1, n_vars) for _ in range(3)]
            for _ in range(rng.randint(1, 30))
        ]
        solver = SatSolver()
        for _ in range(n_vars):
            solver.new_var()
        consistent = all([solver.add_clause(clause) for clause in clauses])
        got = solver.solve() if consistent else False
        want = any(
            all(
                any((lit > 0) == bool((m >> (abs(lit) - 1)) & 1) for lit in clause)
                for clause in clauses
            )
            for m in range(1 << n_vars)
        )
        assert got == want, (trial, clauses)
        if got:
            model = [solver.value(v + 1) for v in range(n_vars)]
            assert all(
                any((lit > 0) == model[abs(lit) - 1] for lit in clause)
                for clause in clauses
            ), trial


def test_random_assumption_cores_vs_brute_force():
    rng = random.Random(1)
    for trial in range(150):
        n_vars = rng.randint(3, 7)
        clauses = [
            [rng.choice([1, -1]) * rng.randint(1, n_vars) for _ in range(2)]
            for _ in range(rng.randint(1, 20))
        ]
        solver = SatSolver()
        for _ in range(n_vars):
            solver.new_var()
        if not all([solver.add_clause(clause) for clause in clauses]):
            continue
        assumptions = [
            rng.choice([1, -1]) * v
            for v in range(1, n_vars + 1)
            if rng.random() < 0.6
        ]

        def brute(extra):
            units = clauses + [[lit] for lit in extra]
            return any(
                all(
                    any(
                        (lit > 0) == bool((m >> (abs(lit) - 1)) & 1)
                        for lit in clause
                    )
                    for clause in units
                )
                for m in range(1 << n_vars)
            )

        got = solver.solve(assumptions)
        assert got == brute(assumptions), (trial, clauses, assumptions)
        if not got:
            core = solver.core()
            assert set(core) <= set(assumptions), (core, assumptions)
            assert not brute(core), ("core not unsat", core, clauses)


def test_allsat_model_counts_vs_brute_force():
    # free variables: 2^4 models
    solver = SatSolver()
    xs = [solver.new_var() for _ in range(4)]
    count = 0
    while solver.solve():
        count += 1
        solver.add_clause([(-x if solver.value(x) else x) for x in xs])
    assert count == 16

    rng = random.Random(2)
    for trial in range(75):
        n_vars = rng.randint(3, 6)
        clauses = [
            [rng.choice([1, -1]) * rng.randint(1, n_vars) for _ in range(3)]
            for _ in range(rng.randint(1, 12))
        ]
        solver = SatSolver()
        for _ in range(n_vars):
            solver.new_var()
        if not all([solver.add_clause(clause) for clause in clauses]):
            continue
        models: set[tuple[bool, ...]] = set()
        while solver.solve():
            model = tuple(solver.value(v + 1) for v in range(n_vars))
            assert model not in models, "AllSAT repeated a model"
            models.add(model)
            solver.add_clause(
                [(-(v + 1) if model[v] else (v + 1)) for v in range(n_vars)]
            )
        want = {
            tuple(bool((m >> v) & 1) for v in range(n_vars))
            for m in range(1 << n_vars)
            if all(
                any((lit > 0) == bool((m >> (abs(lit) - 1)) & 1) for lit in clause)
                for clause in clauses
            )
        }
        assert models == want, (trial, len(models), len(want))


# ----------------------------------------------------------------------
# solve_behaviors == enumerate_behaviors


def test_canonical_litmus_agreement():
    for name in ("SB", "SB+fences", "MP", "IRIW", "2+2W", "CoRR"):
        program = get_test(name).program
        for model_name in MODELS:
            enumerated = enumerate_behaviors(program, get_model(model_name))
            solved = solve_behaviors(program, model_name)
            assert enumerated.complete and solved.complete
            assert _keys(enumerated) == _keys(solved), (name, model_name)


def test_branchy_litmus_agreement():
    # tests with unresolved branches take the restricted-search path
    branchy = [t for t in all_tests() if t.program.has_branches()]
    assert branchy, "library lost its branchy tests?"
    for test in branchy:
        for model_name in ("tso", "weak"):
            enumerated = enumerate_behaviors(test.program, get_model(model_name))
            solved = solve_behaviors(test.program, model_name)
            assert enumerated.complete and solved.complete
            assert _keys(enumerated) == _keys(solved), (test.name, model_name)


def test_solver_stats_consistent():
    _, stats = solve_behaviors_with_stats(get_test("SB").program, "tso")
    assert stats.proposals == stats.feasible + stats.infeasible
    assert stats.behaviors == 4
    result = solve_behaviors(get_test("SB").program, "tso")
    assert result.stats.consistent()


def test_wide_program_has_exactly_one_behavior():
    """t threads each store a private location and load a shared,
    never-written one: one behavior, found by a single SAT proposal."""
    from repro.isa.assembler import assemble_program

    lines = ["test wide-10"]
    for i in range(10):
        lines += [f"thread P{i}", f"    S y{i}, 1", f"    r{i} = L x"]
    solved, stats = solve_behaviors_with_stats(assemble_program("\n".join(lines)), "sc")
    assert solved.complete and len(solved.executions) == 1
    assert stats.proposals == 1


def test_solver_respects_behavior_budget():
    limits = EnumerationLimits(max_behaviors=2, max_executions=50_000)
    result = solve_behaviors(get_test("SB").program, "weak", limits)
    assert not result.complete
    assert len(result.executions) <= 2


def test_encoding_has_selector_groups():
    encoding = encode_program(
        get_test("SB").program, get_model("sc"), with_selectors=True
    )
    keys = {group.key for group in encoding.groups}
    assert "partial-order" in keys and "rf-choice" in keys
    for selector in encoding.selectors():
        assert encoding.group_of(selector).selector == selector


@given(
    st.integers(min_value=0, max_value=499),
    st.sampled_from(MODELS),
)
@settings(max_examples=30, deadline=None)
def test_solver_matches_enumerator_on_fuzz_programs(index, model_name):
    profile = profile_for_index("mixed", index)
    seed = (index * 1_000_003) & 0x7FFFFFFF
    program = generate_program(seed, profile)
    limits = EnumerationLimits(max_behaviors=20_000, max_executions=20_000)
    enumerated = enumerate_behaviors(
        program, get_model(model_name), limits
    )
    solved = solve_behaviors(program, model_name, limits)
    assume(enumerated.complete and solved.complete)
    assert _keys(enumerated) == _keys(solved), (program.name, model_name)


# ----------------------------------------------------------------------
# the explainer


def test_explain_forbidden_sb_under_sc():
    explanation = explain_forbidden(get_test("SB"), "sc")
    assert explanation.forbidden
    assert explanation.core, "a forbidden outcome must produce a core"
    assert explanation.cycle, "SB/sc determines a cycle witness"
    assert explanation.witness is None
    rendered = explanation.render()
    assert "FORBIDDEN" in rendered
    assert "cycle" in rendered


def test_explain_reachable_sb_under_tso():
    explanation = explain_forbidden(get_test("SB"), "tso")
    assert not explanation.forbidden
    assert explanation.witness is not None
    assert explanation.core == []
    rendered = explanation.render()
    assert "is reachable" in rendered and "witness execution" in rendered


def _fresh_outcome_encoding(test, model_name):
    """The same CNF ``explain_forbidden`` solves: axiom groups under
    selectors plus the outcome-restriction group."""
    from repro.analysis.solver.encode import ClauseGroup
    from repro.analysis.solver.explain import (
        GROUP_OUTCOME,
        _conjunctive_atoms,
        _restrict_outcome,
    )

    encoding = encode_program(
        test.program, get_model(model_name), with_selectors=True
    )
    selector = encoding.solver.new_var()
    group = ClauseGroup(GROUP_OUTCOME, "outcome restriction", selector)
    encoding.groups.append(group)
    atoms = _conjunctive_atoms(test.condition.expr)
    assert atoms is not None
    _restrict_outcome(encoding, atoms, group)
    return encoding


def test_explain_core_is_minimal():
    # Dropping any one axiom group from the minimal core must make the
    # CNF satisfiable again.  (Exact because ``blocked == 0``: the core
    # was derived without any replay-blocking clauses.)
    for name, model_name in (("SB", "sc"), ("MP+fences", "weak")):
        explanation = explain_forbidden(get_test(name), model_name)
        assert explanation.forbidden and explanation.core
        assert explanation.blocked == 0
        keys = [group.key for group in explanation.core]
        encoding = _fresh_outcome_encoding(get_test(name), model_name)
        selectors = {
            group.selector: group.key
            for group in encoding.groups
            if group.key in keys and group.selector is not None
        }
        assert sorted(selectors.values()) == sorted(keys)
        assert encoding.solver.solve(list(selectors)) is False
        for dropped, key in selectors.items():
            kept = [s for s in selectors if s != dropped]
            assert encoding.solver.solve(kept), (
                f"{name}/{model_name}: core not minimal, {key} is redundant"
            )


def test_explain_verdicts_match_runner():
    for test in all_tests():
        for model_name in MODELS:
            outcome = run_litmus(test, get_model(model_name))
            explanation = explain_forbidden(test, model_name)
            assert explanation.forbidden == (outcome.satisfied_pairs == 0), (
                test.name,
                model_name,
            )


def test_oracle_solver_vs_axiomatic_clean():
    from repro.testing.oracles import run_oracles

    for name in ("SB", "MP", "IRIW", "CoRR"):
        program = get_test(name).program
        discrepancies, _skipped = run_oracles(
            program, names=("solver-vs-axiomatic",)
        )
        assert discrepancies == [], discrepancies
