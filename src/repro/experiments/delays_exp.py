"""TAB-DELAYS — Shasha & Snir's delay sets, statically and semantically.

§7: "Shasha and Snir take a program and discover which local orderings
are involved in potential cycles and are therefore actually necessary to
preserve SC behavior."  This experiment runs the static analysis and
checks it against the enumerator:

* the classic idioms each have exactly one minimal critical cycle and
  the folklore delay pairs,
* **the theorem**: fencing every delay pair makes the program robust
  (SC-indistinguishable) under WEAK — verified by exhaustive enumeration
  on every straight-line litmus test in the library,
* delays are *necessary*, not just sufficient: un-fenced SB/MP/LB are
  not robust,
* programs without critical cycles (single-writer, atomics-only) need
  no fences at all.
"""

from __future__ import annotations

from repro.analysis.compare import check_robustness
from repro.analysis.delays import delay_set, fence_delays
from repro.litmus.library import all_tests, get_test
from repro.errors import ProgramError
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "TAB-DELAYS"

_CLASSIC_DELAYS = {
    "SB": 2,
    "MP": 2,
    "LB": 2,
    "IRIW": 2,
    "R": 2,
    "S": 2,
    "2+2W": 2,
    "CoRR": 1,
}


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Shasha–Snir delay sets vs the enumerator")

    counts = {}
    for name in _CLASSIC_DELAYS:
        counts[name] = len(delay_set(get_test(name).program).delays)
    result.claim(
        "classic idioms have the folklore delay counts",
        _CLASSIC_DELAYS,
        counts,
    )

    failures = []
    skipped = 0
    checked = 0
    for test in all_tests():
        try:
            report = delay_set(test.program)
        except ProgramError:
            skipped += 1  # branchy or pointer-based tests
            continue
        checked += 1
        fenced = fence_delays(test.program, report)
        if not check_robustness(fenced, "weak").robust:
            failures.append(test.name)
    result.claim(
        f"fencing the delay set restores SC-robustness under WEAK on all "
        f"{checked} straight-line library tests",
        [],
        failures,
    )

    not_robust = [
        name
        for name in ("SB", "MP", "LB")
        if check_robustness(get_test(name).program, "weak").robust
    ]
    result.claim(
        "the un-fenced idioms really are non-robust (delays are necessary)",
        [],
        not_robust,
    )

    no_cycle = delay_set(get_test("INC+INC").program)
    result.claim(
        "an atomics-only program has no critical cycles",
        0,
        len(no_cycle.critical_cycles),
    )

    result.details = "\n".join(
        delay_set(get_test(name).program).summary() for name in _CLASSIC_DELAYS
    ) + f"\n(straight-line tests checked: {checked}, skipped: {skipped})"
    return result
