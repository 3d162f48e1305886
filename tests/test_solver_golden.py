"""Golden pins of the SAT solver's results and decisions.

Two blake2b digests over every (program, model) pair of
``solve_behaviors_with_stats``:

* ``SOLVE_PROJECTION_DIGEST`` guards **behaviour**: completeness, the
  order-independent counters (proposals, feasible, infeasible,
  behaviors) and the sorted ``loadstore_key`` reprs.  No change to how
  the CNF is built or searched may move it.
* ``SOLVE_DIGEST`` guards the **search**: the same fields plus the
  counters that depend on the order models arrive in — the replay's
  resolutions, which depend on what consecutive models share, and the
  solver's conflicts, decisions and propagations.  It moves whenever the
  variable set, the clause database, the decision order or the model
  order changes, while the projection stays put.

A third digest covers the ``repro explain`` text of a few forbidden
library outcomes, so the unsat cores the solver hands the explainer are
pinned too.

Programs: the whole litmus library, the wide family at widths 8 and 10
(``benchmarks/gates.py``'s solver workload) and the fuzz slice of
``tests/test_engine_golden.py``.  Models: sc, tso, pso and weak.  Any
change to the CDCL core's decision order, clause database or learning,
or to the encoding it solves, moves ``SOLVE_DIGEST``; a speedup that
claims to keep every decision must leave it alone, and one that claims
to keep every result must leave the other two alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

import pytest

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

SOLVE_DIGEST = "0cc97e9e1587c28e97fbf43220bc9efb"
SOLVE_PROJECTION_DIGEST = "9cf5544d3d00bba80ab0b23ba11a054f"
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


def _solve_digests() -> tuple[str, str]:
    """(``SOLVE_DIGEST``, ``SOLVE_PROJECTION_DIGEST``) of one pass."""
    full = hashlib.blake2b(digest_size=16)
    projection = hashlib.blake2b(digest_size=16)
    for name, program in _programs():
        for model_name in MODELS:
            result, stats = solve_behaviors_with_stats(
                program, get_model(model_name), FUZZ_LIMITS
            )
            keys = repr(sorted(repr(execution.loadstore_key()) for execution in result.executions))
            full.update(repr((name, model_name, result.complete, asdict(stats))).encode())
            full.update(keys.encode())
            projected = (
                name, model_name, result.complete, stats.proposals, stats.feasible,
                stats.infeasible, stats.behaviors,
            )
            projection.update(repr(projected).encode())
            projection.update(keys.encode())
    return full.hexdigest(), projection.hexdigest()


def _explain_digest() -> str:
    digest = hashlib.blake2b(digest_size=16)
    for test_name, model_name in FORBIDDEN:
        explanation = explain_forbidden(get_test(test_name), model_name)
        assert explanation.forbidden, f"{test_name} under {model_name} must be forbidden"
        digest.update(explanation.render().encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def solve_digests() -> tuple[str, str]:
    return _solve_digests()


def test_solver_results_match_golden_digest(solve_digests):
    assert solve_digests[1] == SOLVE_PROJECTION_DIGEST


def test_solver_decisions_match_golden_digest(solve_digests):
    assert solve_digests[0] == SOLVE_DIGEST


def test_explain_forbidden_text_matches_golden_digest():
    assert _explain_digest() == EXPLAIN_DIGEST
