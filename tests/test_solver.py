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
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.solver import (
    SatSolver,
    encode_program,
    explain_forbidden,
    solve_behaviors,
    solve_behaviors_with_stats,
)
from repro.analysis.solver.sat import _UNDEF, _luby
from repro.core.enumerate import (
    CancellationToken,
    EnumerationLimits,
    ExhaustionReason,
    enumerate_behaviors,
)
from repro.errors import EnumerationError
from repro.experiments.scaling import chain_program
from repro.litmus.library import all_tests, get_test
from repro.litmus.runner import run_litmus
from repro.models import get_model
from repro.testing.fuzzgen import generate_program, profile_for_index
from tests.test_solver_golden import _wide_program

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


def test_depth_first_walk_over_prefixes_vs_brute_force():
    """A non-blocking AllSAT walk: each call's assumptions extend a
    prefix of the last model, so consecutive calls share a prefix and
    the solver keeps its trail.  Every model is found exactly once, and
    each answer agrees with brute force and with a fresh solver."""
    rng = random.Random(3)
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
        models: list[tuple[bool, ...]] = []
        walk: list[tuple[int, ...]] = [()]
        while walk:
            prefix = walk.pop()
            fresh = SatSolver()
            for _ in range(n_vars):
                fresh.new_var()
            for clause in clauses:
                fresh.add_clause(clause)
            got = solver.solve(prefix)
            assert got == fresh.solve(prefix), (trial, prefix)
            if not got:
                continue
            model = tuple(solver.value(v + 1) for v in range(n_vars))
            literals = tuple((v + 1) if model[v] else -(v + 1) for v in range(n_vars))
            assert literals[: len(prefix)] == prefix
            models.append(model)
            for depth in range(len(prefix), n_vars):
                walk.append(literals[:depth] + (-literals[depth],))
        want = {
            tuple(bool((m >> v) & 1) for v in range(n_vars))
            for m in range(1 << n_vars)
            if all(
                any((lit > 0) == bool((m >> (abs(lit) - 1)) & 1) for lit in clause)
                for clause in clauses
            )
        }
        assert len(models) == len(set(models)) and set(models) == want, trial


def test_hard_solve_call_stops_on_its_deadline():
    """``interrupt`` is called at every conflict, so one hard call stops:
    PHP(9, 8) runs for minutes on this solver, but stops within a second
    of a 0.1 s deadline and leaves the solver at the root."""
    solver = _pigeonhole(9, 8)
    deadline = time.monotonic() + 0.1

    def interrupt():
        if time.monotonic() >= deadline:
            raise TimeoutError

    with pytest.raises(TimeoutError):
        solver.solve(interrupt=interrupt)
    assert time.monotonic() - deadline < 1.0
    assert solver.conflicts > 0 and not solver._trail_lim
    assert solver.fixed(1) is None and solver.add_clause([1, 2])


def test_literal_zero_and_unknown_variables_are_rejected():
    # Literal 0 is the DIMACS terminator: it once mapped to variable -1,
    # aliasing the last variable, so add_clause([0]) forced b true.
    solver = SatSolver()
    a, b = solver.new_var(), solver.new_var()
    for clause in ([0], [a, 0], [3], [-3], [a, -a, 0]):
        with pytest.raises(ValueError):
            solver.add_clause(clause)
    solver.add_clause([a])
    with pytest.raises(ValueError):
        solver.add_clause([a, 3])  # checked even though [a] satisfies it
    for assumptions in ([0], [b, 0], [3]):
        with pytest.raises(ValueError):
            solver.solve(assumptions)
    assert solver.solve([-b])  # no rejected clause left b forced
    assert solver.value(a) and not solver.value(b) and solver.value(-b)
    for lit in (0, 3, -3):
        with pytest.raises(ValueError):
            solver.value(lit)


def test_fixed_reports_root_values():
    solver = SatSolver()
    a, b, c = (solver.new_var() for _ in range(3))
    solver.add_clause([-a, b])
    solver.add_clause([a])
    assert solver.fixed(a) is True and solver.fixed(-a) is False
    assert solver.fixed(b) is True and solver.fixed(c) is None
    assert solver.solve([c])
    assert solver.fixed(c) is None  # assumptions do not stick
    with pytest.raises(ValueError):
        solver.fixed(0)


# ----------------------------------------------------------------------
# the order heap against the linear decision scan
#
# ``_scan_decide`` is the solver's decision rule before the order heap,
# verbatim: the unassigned variable of highest activity, lowest index on
# ties.  The heap must reproduce it decision for decision, so two
# solvers that differ only in ``_decide`` must agree on every decision,
# conflict, model and core.


def _scan_decide(self) -> int:
    best = _UNDEF
    best_activity = -1.0
    for var, assigned in enumerate(self._assign):
        if assigned == _UNDEF and self._activity[var] > best_activity:
            best = var
            best_activity = self._activity[var]
    if best == _UNDEF:
        return _UNDEF
    return 2 * best + (1 - self._phase[best])


class _Recording(SatSolver):
    """The solver under test, logging every decision."""

    def __init__(self) -> None:
        super().__init__()
        self.decided: list[int] = []

    def _decide(self) -> int:
        decision = super()._decide()
        self.decided.append(decision)
        return decision


class _ScanOracle(_Recording):
    def _decide(self) -> int:
        decision = _scan_decide(self)
        self.decided.append(decision)
        return decision


def _trace(solver: _Recording, n_vars: int, clauses, rounds) -> list:
    """Feed ``clauses``, then solve once per assumption list in
    ``rounds``, blocking each model found (AllSAT-style); returns every
    observable outcome."""
    outcomes: list = [[solver.add_clause(clause) for clause in clauses]]
    for assumptions in rounds:
        result = solver.solve(assumptions)
        model = [solver.value(v) for v in range(1, n_vars + 1)] if result else None
        outcomes.append((result, model, solver.core()))
        if result:
            solver.add_clause([-v if value else v for v, value in enumerate(model, 1)])
    outcomes.append(
        (solver.decided, solver.conflicts, solver.decisions, solver.propagations, solver.restarts)
    )
    return outcomes


def _random_case(rng: random.Random):
    n_vars = rng.randint(3, 40)
    clauses = [
        [rng.choice([1, -1]) * rng.randint(1, n_vars) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(1, int(4.5 * n_vars)))
    ]
    rounds = [
        [rng.choice([1, -1]) * v for v in rng.sample(range(1, n_vars + 1), rng.randint(0, 3))]
        for _ in range(rng.randint(1, 4))
    ]
    return n_vars, clauses, rounds


def _run_both(n_vars, clauses, rounds, var_inc=1.0):
    traces = []
    solvers = []
    for cls in (_Recording, _ScanOracle):
        solver = cls()
        for _ in range(n_vars):
            solver.new_var()
        solver._var_inc = var_inc
        traces.append(_trace(solver, n_vars, clauses, rounds))
        solvers.append(solver)
    return traces, solvers


def test_order_heap_matches_linear_scan_on_random_cnfs():
    rng = random.Random(16)
    decisions = 0
    for trial in range(150):
        n_vars, clauses, rounds = _random_case(rng)
        (heap, scan), _ = _run_both(n_vars, clauses, rounds)
        assert heap == scan, (trial, n_vars, clauses, rounds)
        decisions += heap[-1][2]
    assert decisions > 1000  # the comparison exercised the heap


def test_order_heap_matches_linear_scan_across_activity_rescale():
    # A huge initial increment makes the 1e100 rescale fire within a few
    # conflicts; the heap is rebuilt there.
    rng = random.Random(100)
    rescaled = 0
    for trial in range(40):
        # Random 3-SAT near the 4.26 clause/variable threshold: hard
        # enough to conflict dozens of times.
        n_vars = rng.randint(30, 50)
        clauses = [
            [rng.choice([1, -1]) * v for v in rng.sample(range(1, n_vars + 1), 3)]
            for _ in range(round(4.26 * n_vars))
        ]
        rounds = [[rng.choice([1, -1]) * rng.randint(1, n_vars)], []]
        (heap, scan), (heap_solver, _) = _run_both(n_vars, clauses, rounds, var_inc=1e99)
        assert heap == scan, (trial, n_vars, clauses, rounds)
        rescaled += heap_solver._var_inc < 1e99
    # Six pigeons, five holes: variable 5p+h+1 puts pigeon p in hole h.
    pigeons = [[5 * p + h + 1 for h in range(5)] for p in range(6)] + [
        [-(5 * p1 + h + 1), -(5 * p2 + h + 1)]
        for h in range(5)
        for p1, p2 in itertools.combinations(range(6), 2)
    ]
    (heap, scan), (heap_solver, _) = _run_both(30, pigeons, [[]], var_inc=1e99)
    assert heap == scan
    assert heap[1][0] is False and heap_solver._var_inc < 1e99
    assert rescaled > 0


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


def test_straight_line_programs_never_run_the_enumerators_search(monkeypatch):
    """The solver stays an independent oracle: only a skeleton blocked
    on a branch replays through the enumerator's ``_search``."""
    from repro.analysis.solver import behaviors

    def refuse(*args, **kwargs):
        raise AssertionError("the enumerator's search ran on a straight-line program")

    monkeypatch.setattr(behaviors, "_search", refuse)
    programs = [t.program for t in all_tests() if not t.program.has_branches()]
    for program in programs + [chain_program(3, 1)]:
        for model_name in MODELS:
            assert solve_behaviors(program, model_name).complete, (program.name, model_name)


def test_wide_program_has_exactly_one_behavior():
    """t threads each store a private location and load a shared,
    never-written one: one behavior, found by a single SAT proposal."""
    solved, stats = solve_behaviors_with_stats(_wide_program(10), "sc")
    assert solved.complete and len(solved.executions) == 1
    assert stats.proposals == 1


@pytest.mark.parametrize("threads", [8, 10])
@pytest.mark.parametrize("model_name", ["sc", "weak"])
def test_order_variables_only_over_what_an_axiom_orders(threads, model_name):
    """Of wide-t's 3t+1 memory operations only the t loads and ``init x``
    (their one source) appear in an axiom clause, so ⊑ gets (t+1)·t
    variables, not (3t+1)·3t: the private stores and their inits are
    ordered by the skeleton alone."""
    encoding = encode_program(_wide_program(threads), get_model(model_name))
    assert len(encoding.order_var) == (threads + 1) * threads
    assert len(encoding.memory_nodes) == threads + 1
    assert {node.nid for node in encoding.loads} <= {
        node.nid for node in encoding.memory_nodes
    }


def test_known_addresses_never_compute_static_facts(monkeypatch):
    """Facts are computed on first need: a straight-line test whose
    skeleton knows every address never asks for them, while MP+addr (a
    load whose address comes from another load) does, and still agrees
    with the enumerator."""
    import sys

    from repro.analysis.static.dataflow import compute_static_facts

    def replace_everywhere(stand_in):
        """Rebind the name in every module that imported it."""
        for module in list(sys.modules.values()):
            if getattr(module, "compute_static_facts", None) is compute_static_facts:
                monkeypatch.setattr(module, "compute_static_facts", stand_in)

    def refuse(program):
        raise AssertionError(f"static facts computed for {program.name}")

    replace_everywhere(refuse)
    for name in ("SB", "MP", "IRIW"):
        for model_name in MODELS:
            assert solve_behaviors(get_test(name).program, model_name).complete
    monkeypatch.undo()

    calls = []

    def counting(program):
        calls.append(program.name)
        return compute_static_facts(program)

    replace_everywhere(counting)
    program = get_test("MP+addr").program
    for model_name in MODELS:
        solved = solve_behaviors(program, model_name)
        enumerated = enumerate_behaviors(program, get_model(model_name))
        assert solved.complete and enumerated.complete
        assert _keys(solved) == _keys(enumerated), model_name
    assert calls == ["MP+addr"] * len(MODELS)


def test_solver_respects_behavior_budget():
    limits = EnumerationLimits(max_behaviors=2, max_executions=50_000)
    result = solve_behaviors(get_test("SB").program, "weak", limits)
    assert not result.complete
    assert len(result.executions) <= 2


def test_solver_deadline_stops_promptly_with_a_partial_result():
    """The deadline is checked between proposals: fanout-4x1/weak (625
    proposals to completion) stops soon after 0.05 s with an honest
    subset of its behaviors."""
    program, model = chain_program(4, 1), get_model("weak")
    start = time.monotonic()
    result, stats = solve_behaviors_with_stats(
        program, model, EnumerationLimits(deadline_seconds=0.05)
    )
    elapsed = time.monotonic() - start
    assert not result.complete and result.reason is ExhaustionReason.DEADLINE
    assert result.status == "partial (deadline)"
    assert elapsed < 2.0
    assert stats.proposals < 625
    assert set(_keys(result)) <= set(_keys(enumerate_behaviors(program, model)))


def test_a_cancelled_token_stops_solve_and_explain():
    """``solve_behaviors`` returns a partial result, ``explain_forbidden``
    raises; both name the token."""
    token = CancellationToken()
    token.cancel()
    result = solve_behaviors(get_test("SB").program, "weak", token=token)
    assert not result.complete and result.reason is ExhaustionReason.CANCELLED
    with pytest.raises(EnumerationError) as exc:
        explain_forbidden(get_test("SB"), "sc", token=token)
    assert exc.value.reason is ExhaustionReason.CANCELLED


def test_solve_cli_reports_an_exhausted_deadline(capsys):
    from repro.cli import main

    main(["solve", "IRIW", "-m", "weak", "--deadline", "0.001"])
    out = capsys.readouterr().out
    assert "[partial (deadline)]" in out and "[complete]" not in out


#: Node limits at which the branchy library tests truncate, and the default.
NODE_LIMITS = (3, 4, 5, 6, 8, 64)


def test_solver_completeness_matches_enumerator_at_the_node_limit():
    """A branch past ``max_nodes_per_thread`` is dropped and counted in
    ``truncated`` by both searches; it is not a budget stop.  On every
    branchy library test, model and node limit, the solver's
    ``complete`` flag and behaviors equal the enumerator's."""
    compared = truncated = 0
    for test in all_tests():
        if not test.program.has_branches():
            continue
        for model_name, max_nodes in itertools.product(MODELS, NODE_LIMITS):
            limits = EnumerationLimits(max_nodes_per_thread=max_nodes)
            try:
                enumerated = enumerate_behaviors(test.program, get_model(model_name), limits)
            except EnumerationError:
                # The skeleton itself exceeds the limit: both refuse.
                with pytest.raises(EnumerationError):
                    solve_behaviors(test.program, model_name, limits)
                continue
            solved = solve_behaviors(test.program, model_name, limits)
            assert (solved.complete, _keys(solved)) == (
                enumerated.complete,
                _keys(enumerated),
            ), (test.name, model_name, max_nodes)
            compared += 1
            truncated += solved.stats.truncated > 0
    assert compared == 116
    assert truncated > 0


def test_explain_forbidden_honours_the_deadline():
    """``explain_forbidden`` is strict: an exhausted deadline raises
    with ``reason=DEADLINE`` instead of returning a verdict."""
    for test in all_tests():
        for model_name in ("sc", "tso", "weak"):
            with pytest.raises(EnumerationError) as exc:
                explain_forbidden(test, model_name, EnumerationLimits(deadline_seconds=0.0))
            assert exc.value.reason is ExhaustionReason.DEADLINE, (test.name, model_name)


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


def test_solver_leaves_no_cyclic_garbage():
    """Each call's encoding, CFGs and replay frontiers are freed by
    reference counting alone, not left for the cyclic collector."""
    import gc

    gc.collect()
    gc.disable()
    try:
        for name in ("SB", "MP+ctrl", "IRIW", "CoRR", "dekker"):
            test = get_test(name)
            for model_name in MODELS:
                solve_behaviors(test.program, model_name)
                explain_forbidden(test, model_name)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
