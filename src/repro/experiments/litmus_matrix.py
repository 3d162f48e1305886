"""TAB-LITMUS — the litmus-test × memory-model outcome matrix.

The paper's framework claims "it is easy to experiment with a broad range
of memory models simply by changing the requirements for instruction
reordering".  This experiment runs the full classic litmus library under
SC / TSO / PSO / WEAK / WEAK-CORR and checks every verdict against the
literature's expectations, plus the model-strength inclusion chain
SC ⊆ TSO ⊆ PSO ⊆ WEAK on outcome sets.
"""

from __future__ import annotations

from repro.analysis.compare import check_inclusion_chain
from repro.litmus.library import all_tests
from repro.litmus.runner import format_matrix, run_matrix
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "TAB-LITMUS"

MODELS = ("sc", "tso", "pso", "weak", "weak-corr")
CHAIN = ("sc", "tso", "pso", "weak")


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Litmus-test × model outcome matrix")
    tests = all_tests()
    verdicts = run_matrix(tests, MODELS)

    mismatches = [v for v in verdicts if v.matches_expectation is False]
    result.claim(
        f"all {len(verdicts)} verdicts match the literature's expectations",
        0,
        len(mismatches),
    )
    corr_divergence = [
        v
        for v in verdicts
        if v.test.name == "CoRR" and v.model.name in ("weak", "weak-corr")
    ]
    result.claim(
        "CoRR discriminates weak (observable) from weak-corr (forbidden)",
        {("weak", True), ("weak-corr", False)},
        {(v.model.name, v.holds) for v in corr_divergence},
    )

    chain = check_inclusion_chain([t.program for t in tests], CHAIN)
    result.claim(
        "outcome inclusion chain sc ⊆ tso ⊆ pso ⊆ weak holds on every test",
        (),
        chain.violations,
    )

    result.details = format_matrix(verdicts)
    return result
