"""Golden pin of the SAT solver's observable decisions.

One blake2b digest over, for every (program, model) pair: the
``SolveStats`` of ``solve_behaviors_with_stats`` (proposals, conflicts,
decisions, propagations, ...) and the sorted ``loadstore_key`` reprs of
its behaviors.  A second digest covers the ``repro explain`` text
of a few forbidden library outcomes, so the unsat cores the solver hands
the explainer are pinned too.

Programs: the whole litmus library, the wide family at widths 8 and 10
(``benchmarks/gates.py``'s solver workload) and the fuzz slice of
``tests/test_engine_golden.py``.  Models: sc, tso, pso and weak.  Any
change to the CDCL core's decision order, clause database or learning,
or to the encoding and replay it drives, moves a digest; a speedup that
claims to keep every decision must leave both alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

from repro.analysis.solver import explain_forbidden, solve_behaviors_with_stats
from repro.isa.assembler import assemble_program
from repro.litmus.library import all_tests, get_test
from repro.models import get_model
from repro.testing.fuzzgen import MIXED, derive_seed, generate_program, profile_for_index
from repro.testing.oracles import FUZZ_LIMITS

MODELS = ("sc", "tso", "pso", "weak")
FUZZ_SEED = 7
FUZZ_SLICE = range(10)
WIDE_WIDTHS = (8, 10)
#: (test, model) outcomes whose ``repro explain`` text is pinned.
FORBIDDEN = (
    ("SB", "sc"),
    ("MP+fences", "weak"),
    ("IRIW+fences", "weak"),
    ("LB", "tso"),
    ("WRC+fences", "pso"),
    ("CoRR", "tso"),
    ("dekker", "weak"),
    ("2+2W", "sc"),
)

SOLVE_DIGEST = "2c2808e0ecb810d2d353769982b5860b"
EXPLAIN_DIGEST = "a23f52da6ab31226cb9c472655a3f265"


def _wide_program(threads: int):
    """t threads × {store a private location; load a shared, never-stored
    one}: the solver gate's wide family."""
    lines = [f"test wide-{threads}"]
    for i in range(threads):
        lines += [f"thread P{i}", f"    S y{i}, 1", f"    r{i} = L x"]
    return assemble_program("\n".join(lines))


def _programs():
    for test in all_tests():
        yield test.name, test.program
    for width in WIDE_WIDTHS:
        yield f"wide-{width}", _wide_program(width)
    for index in FUZZ_SLICE:
        yield f"fuzz-{index}", generate_program(
            derive_seed(FUZZ_SEED, index), profile_for_index(MIXED, index)
        )


def _solve_digest() -> str:
    digest = hashlib.blake2b(digest_size=16)
    for name, program in _programs():
        for model_name in MODELS:
            result, stats = solve_behaviors_with_stats(
                program, get_model(model_name), FUZZ_LIMITS
            )
            keys = sorted(repr(execution.loadstore_key()) for execution in result.executions)
            digest.update(repr((name, model_name, result.complete, asdict(stats))).encode())
            digest.update(repr(keys).encode())
    return digest.hexdigest()


def _explain_digest() -> str:
    digest = hashlib.blake2b(digest_size=16)
    for test_name, model_name in FORBIDDEN:
        explanation = explain_forbidden(get_test(test_name), model_name)
        assert explanation.forbidden, f"{test_name} under {model_name} must be forbidden"
        digest.update(explanation.render().encode())
    return digest.hexdigest()


def test_solver_results_match_golden_digest():
    assert _solve_digest() == SOLVE_DIGEST


def test_explain_forbidden_text_matches_golden_digest():
    assert _explain_digest() == EXPLAIN_DIGEST
