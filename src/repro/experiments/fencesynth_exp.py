"""TAB-FENCESYNTH — minimal fences per (test, model), synthesized.

Shasha & Snir's delay-set question run backwards through the enumerator:
how many fences — and where — does each classic idiom need under each
model?  The folklore answers fall out exactly:

* SB needs one fence per thread under everything weaker than SC,
* MP needs two fences under WEAK but only the writer-side fence under
  PSO (reader loads are already ordered there),
* test R needs exactly P1's store→load fence on TSO,
* IRIW needs both reader-side fences under WEAK and nothing else,
* fully relaxed LB is repaired by either thread's load→store fences.
"""

from __future__ import annotations

from repro.analysis.fencesynth import FenceSite, synthesize_fences
from repro.litmus.library import get_test
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "TAB-FENCESYNTH"

EXPECTED = {
    ("SB", "weak"): ((FenceSite("P0", 1), FenceSite("P1", 1)),),
    ("SB", "tso"): ((FenceSite("P0", 1), FenceSite("P1", 1)),),
    ("MP", "weak"): ((FenceSite("P0", 1), FenceSite("P1", 1)),),
    ("MP", "pso"): ((FenceSite("P0", 1),),),
    ("R", "tso"): ((FenceSite("P1", 1),),),
    ("IRIW", "weak"): ((FenceSite("P2", 1), FenceSite("P3", 1)),),
    ("LB", "weak"): ((FenceSite("P0", 1), FenceSite("P1", 1)),),
}


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Minimal fence synthesis")
    lines = []
    for (test_name, model_name), expected_solutions in EXPECTED.items():
        synthesis = synthesize_fences(get_test(test_name), model_name)
        lines.append(synthesis.summary())
        result.claim(
            f"{test_name} under {model_name}: minimal fences are "
            f"{[tuple(map(str, s)) for s in expected_solutions]}",
            sorted(expected_solutions),
            sorted(tuple(solution) for solution in synthesis.solutions),
        )

    already = synthesize_fences(get_test("SB"), "sc")
    result.claim("SB under SC needs no fences at all", 0, already.fence_count)

    mp_tso = synthesize_fences(get_test("MP"), "tso")
    result.claim("MP under TSO needs no fences", 0, mp_tso.fence_count)

    result.details = "\n".join(lines)
    return result
