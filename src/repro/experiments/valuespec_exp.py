"""TAB-VALUESPEC — value speculation: safe vs naive (§5 future work).

Two claims are checked inside the framework:

1. **Safety of validated speculation / completeness of §4's
   restriction.** Letting loads resolve in any order (pure value
   prediction) with full Store Atomicity rollback yields EXACTLY the
   standard behavior set, on several programs and models.  This is the
   formal face of §4's remark that restricting Load resolution order
   (rather than restricting ``candidates(L)``) loses no legal
   executions.

2. **Martin et al. [23] reproduced.** The *naive* machine — dependents
   run on predicted values, commits are never re-examined — admits
   behaviors whose Store Atomicity closure is unsatisfiable.  Under the
   SC table these are Sequential Consistency violations: the
   message-passing stale read and the store-buffering both-zero outcome
   appear, each flagged illegal by the declarative checker.
"""

from __future__ import annotations

from repro.core.enumerate import enumerate_behaviors
from repro.core.valuespec import enumerate_value_speculation
from repro.litmus.library import get_test
from repro.models.registry import get_model
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "TAB-VALUESPEC"

_PROGRAMS = ("SB", "MP", "LB", "CoRR")
_MODELS = ("sc", "weak")


def run() -> ExperimentResult:
    result = ExperimentResult(
        EXPERIMENT_ID, "Value speculation: validated is safe, naive violates SC"
    )

    mismatches = []
    for test_name in _PROGRAMS:
        program = get_test(test_name).program
        for model_name in _MODELS:
            standard = enumerate_behaviors(
                program, get_model(model_name)
            ).register_outcomes()
            speculated = enumerate_value_speculation(
                program, model_name, validate=True
            ).register_outcomes()
            if standard != speculated:
                mismatches.append(f"{test_name}/{model_name}")
    result.claim(
        "validated value speculation ≡ standard enumeration on "
        f"{len(_PROGRAMS)} programs × {len(_MODELS)} models",
        [],
        mismatches,
    )

    mp = get_test("MP").program
    naive_mp = enumerate_value_speculation(mp, "sc", validate=False)
    stale = frozenset({(("P1", "r1"), 1), (("P1", "r2"), 0)})
    result.claim(
        "naive machine admits the MP stale read under SC",
        True,
        stale in naive_mp.register_outcomes(),
    )
    result.claim(
        "the stale read is flagged illegal (closure unsatisfiable)",
        True,
        stale in naive_mp.violating_outcomes(),
    )
    result.claim(
        "naive machine's LEGAL outcomes equal standard SC on MP",
        enumerate_behaviors(mp, get_model("sc")).register_outcomes(),
        naive_mp.legal_outcomes(),
    )

    sb = get_test("SB").program
    naive_sb = enumerate_value_speculation(sb, "sc", validate=False)
    both_zero = frozenset({(("P0", "r1"), 0), (("P1", "r2"), 0)})
    result.claim(
        "naive machine admits (and flags) SB both-zero under SC",
        True,
        both_zero in naive_sb.violating_outcomes(),
    )

    result.details = (
        f"MP/sc naive: {len(naive_mp)} executions, "
        f"{naive_mp.stats.unvalidated} closure-unsatisfiable\n"
        f"SB/sc naive: {len(naive_sb)} executions, "
        f"{naive_sb.stats.unvalidated} closure-unsatisfiable"
    )
    return result
