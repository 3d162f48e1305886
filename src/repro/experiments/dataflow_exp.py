"""TAB-DATAFLOW — the dataflow layer, cross-validated on the library.

The per-thread dataflow passes (`repro.analysis.static.dataflow`) feed
the static analyzer and the speculation-safety check, each held to the
enumeration ground truth on the whole litmus library:

1. **Precision strictly improves over PR 2.**  The syntactic analyzer
   treated every finding of a branchy/indirect program as
   over-approximated; the dataflow-backed analyzer must strictly reduce
   the number of over-approximated findings without giving up soundness
   (soundness itself is TAB-STATIC's job).

2. **Speculation safety matches the Figure 8/9 machinery.**  Every
   library load is statically safe to alias-speculate, and indeed
   enumeration under ``weak`` and ``weak-spec`` agrees on every library
   test; the Figure 8 program has the one unsafe load (B's final ``L8``)
   and is exactly where ``weak-spec`` admits the extra ``r8 = 2``
   outcome.  Validated value speculation stays exact even on that
   unsafe load — rollback restores what the static verdict says
   speculation alone would break.
"""

from __future__ import annotations

from repro.analysis.static import analyze_program, speculation_safety
from repro.core.enumerate import enumerate_behaviors
from repro.core.valuespec import enumerate_value_speculation
from repro.experiments.base import ExperimentResult
from repro.experiments.fig89 import build_aliasing_program, build_program
from repro.litmus.library import all_tests
from repro.models.registry import get_model

EXPERIMENT_ID = "TAB-DATAFLOW"


def run() -> ExperimentResult:
    result = ExperimentResult(
        EXPERIMENT_ID, "Dataflow facts: sharper verdicts, safe speculation"
    )
    tests = all_tests()
    fig8 = build_program()
    fig8_alias = build_aliasing_program()

    # --- 1. precision strictly improves over the syntactic analyzer ----
    legacy_approx = precise_approx = 0
    legacy_conservative = precise_conservative = 0
    regressions: list[str] = []
    for test in tests:
        legacy = analyze_program(test.program, "weak", precise=False)
        precise = analyze_program(test.program, "weak")
        legacy_conservative += legacy.conservative
        precise_conservative += precise.conservative
        # PR 2 had no per-finding provenance: a conservative program's
        # findings all counted as over-approximated.
        if legacy.conservative:
            legacy_approx += len(legacy.races) + len(legacy.delays)
        precise_approx += precise.finding_provenance()[1]
        if precise.conservative and not legacy.conservative:
            regressions.append(test.name)
    result.claim(
        "over-approximated finding count strictly decreases vs the "
        "syntactic analyzer",
        True,
        precise_approx < legacy_approx,
    )
    result.claim(
        "no test becomes conservative that the syntactic analyzer "
        "resolved exactly",
        [],
        regressions,
    )

    # --- 2. speculation safety vs the fig89/valuespec machinery --------
    weak = get_model("weak")
    weak_spec = get_model("weak-spec")
    disagreements: list[str] = []
    unsafe_library: list[str] = []
    for test in tests:
        report = speculation_safety(test.program, "weak")
        weak_outcomes = enumerate_behaviors(test.program, weak).register_outcomes()
        spec_outcomes = enumerate_behaviors(test.program, weak_spec).register_outcomes()
        if not report.all_safe:
            unsafe_library.append(test.name)
        if report.all_safe and weak_outcomes != spec_outcomes:
            disagreements.append(test.name)
    result.claim(
        "every load statically safe ⇒ weak and weak-spec outcome sets "
        "agree (whole library)",
        [],
        disagreements,
    )
    result.claim(
        "no library test needs an unsafe-to-speculate verdict",
        [],
        unsafe_library,
    )

    fig8_report = speculation_safety(fig8, "weak")
    unsafe = [(v.thread, v.index) for v in fig8_report.unsafe_loads()]
    result.claim(
        "Figure 8: exactly B's final load (L8) is unsafe to alias-speculate",
        [("B", 4)],
        unsafe,
    )
    fig8_weak = enumerate_behaviors(fig8, weak).register_outcomes()
    fig8_spec = enumerate_behaviors(fig8, weak_spec).register_outcomes()
    result.claim(
        "Figure 8: speculation admits strictly more behaviors, as the "
        "unsafe verdict predicts",
        True,
        fig8_weak < fig8_spec,
    )
    alias_report = speculation_safety(fig8_alias, "weak")
    result.claim(
        "Figure 9 aliasing variant: the same load is flagged unsafe",
        [("B", 4)],
        [(v.thread, v.index) for v in alias_report.unsafe_loads()],
    )
    validated = enumerate_value_speculation(fig8, "weak", validate=True)
    result.claim(
        "validated value speculation stays exact on Figure 8 despite the "
        "unsafe load (rollback restores soundness)",
        fig8_weak,
        validated.register_outcomes(),
    )

    result.details = (
        f"conservative programs: {legacy_conservative} syntactic -> "
        f"{precise_conservative} precise; over-approximated findings: "
        f"{legacy_approx} -> {precise_approx}"
    )
    return result
