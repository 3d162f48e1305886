"""TAB-SOLVER — constraint solver vs axiomatic enumeration.

Cross-validates the CDCL/AllSAT decision procedure
(:mod:`repro.analysis.solver`) against the reference enumerator on the
full litmus library under {sc, tso, pso, weak}: the behavior *sets*
must be byte-identical under ``loadstore_key`` — same final memory,
same register results, same projected ⊑ relation, same bypass
identities.  Equality here is the strongest available evidence that
the SAT encoding is a sound relaxation and that replay-through-the-
engine recovers exactly the real behaviors, nothing more.

A second set of claims exercises the unsat-core explainer on the
canonical forbidden/reachable outcomes: a forbidden outcome must come
back with a *minimal* violated-axiom core and a cycle witness, a
reachable one with a concrete witness execution.
"""

from __future__ import annotations

from repro.analysis.solver import explain_forbidden, solve_behaviors_with_stats
from repro.core.enumerate import enumerate_behaviors
from repro.experiments.base import ExperimentResult
from repro.litmus.library import all_tests, get_test
from repro.models.registry import get_model

EXPERIMENT_ID = "TAB-SOLVER"

_MODELS = ("sc", "tso", "pso", "weak")

#: (test, model, paper verdict) — the canonical explainer checks.
_EXPLAIN_CASES = (
    ("SB", "sc", True),
    ("SB", "tso", False),
    ("SB+fences", "tso", True),
    ("MP", "tso", True),
    ("MP", "weak", False),
    ("MP+fences", "weak", True),
)


def run() -> ExperimentResult:
    result = ExperimentResult(
        EXPERIMENT_ID, "SAT/AllSAT constraint solver vs axiomatic enumeration"
    )
    tests = all_tests()
    lines = []
    for model_name in _MODELS:
        model = get_model(model_name)
        mismatched = []
        proposals = feasible = 0
        for test in tests:
            enumerated = enumerate_behaviors(test.program, model)
            solved, stats = solve_behaviors_with_stats(test.program, model)
            proposals += stats.proposals
            feasible += stats.feasible
            reference = sorted(
                repr(e.loadstore_key()) for e in enumerated.executions
            )
            candidate = sorted(
                repr(e.loadstore_key()) for e in solved.executions
            )
            if reference != candidate or not (enumerated.complete and solved.complete):
                mismatched.append(test.name)
            lines.append(
                f"{test.name:<16} {model_name:<5} behaviors={len(candidate):<4} "
                f"proposals={stats.proposals:<5} infeasible={stats.infeasible:<4} "
                f"{'==' if test.name not in mismatched else 'DIFFER'}"
            )
        result.claim(
            f"{model_name}: solver == enumerator (loadstore_key) on all "
            f"{len(tests)} litmus tests",
            [],
            mismatched,
        )
        lines.append(
            f"-- {model_name}: {proposals} SAT proposals, "
            f"{proposals - feasible} relaxation artifacts rejected by replay"
        )
    for test_name, model_name, expect_forbidden in _EXPLAIN_CASES:
        explanation = explain_forbidden(get_test(test_name), model_name)
        verdict = "forbidden" if explanation.forbidden else "reachable"
        evidence_ok = (
            bool(explanation.core) and explanation.cycle is not None
            if explanation.forbidden
            else explanation.witness is not None
        )
        result.claim(
            f"explain {test_name}/{model_name}: "
            f"{'forbidden with minimal core + cycle' if expect_forbidden else 'reachable with witness'}",
            ("forbidden" if expect_forbidden else "reachable", True),
            (verdict, evidence_ok),
        )
        lines.append(
            f"explain {test_name:<12} {model_name:<5} {verdict:<9} "
            + (
                f"core={len(explanation.core)} axioms, cycle={len(explanation.cycle or [])} edges"
                if explanation.forbidden
                else "witness found"
            )
        )
    result.details = "\n".join(lines)
    return result
