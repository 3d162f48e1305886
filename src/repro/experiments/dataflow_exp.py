"""TAB-DATAFLOW — the dataflow layer, cross-validated on the library.

The per-thread dataflow passes (`repro.analysis.static.dataflow`) feed
three consumers, and each is held to the enumeration ground truth on the
whole litmus library:

1. **Pruned enumeration is exact.**  Handing ``StaticFacts`` to the
   enumerator prunes the candidate-store scan and settles
   statically-certain alias pairs at generation time; the resulting
   outcome sets must be *byte-identical* to unpruned enumeration on
   every (test, model) pair, with a ≥20% mean scan reduction on the
   tests that compute addresses in registers.

2. **Precision strictly improves over PR 2.**  The syntactic analyzer
   treated every finding of a branchy/indirect program as
   over-approximated; the dataflow-backed analyzer must strictly reduce
   the number of over-approximated findings without giving up soundness
   (soundness itself is TAB-STATIC's job).

3. **Speculation safety matches the Figure 8/9 machinery.**  Every
   library load is statically safe to alias-speculate, and indeed
   enumeration under ``weak`` and ``weak-spec`` agrees on every library
   test; the Figure 8 program has the one unsafe load (B's final ``L8``)
   and is exactly where ``weak-spec`` admits the extra ``r8 = 2``
   outcome.  Validated value speculation stays exact even on that
   unsafe load — rollback restores what the static verdict says
   speculation alone would break.
"""

from __future__ import annotations

import time

from repro.analysis.static import analyze_program, compute_static_facts, speculation_safety
from repro.core.enumerate import enumerate_behaviors
from repro.core.valuespec import enumerate_value_speculation
from repro.experiments.base import ExperimentResult
from repro.experiments.fig89 import build_aliasing_program, build_program
from repro.isa.operands import Reg
from repro.isa.program import Program
from repro.litmus.library import all_tests
from repro.models.registry import get_model

EXPERIMENT_ID = "TAB-DATAFLOW"

_MODELS = ("sc", "tso", "pso", "weak", "weak-spec")


def uses_register_addresses(program: Program) -> bool:
    """Whether any memory access computes its address in a register."""
    return any(
        isinstance(instruction.addr_operand(), Reg)
        for thread in program.threads
        for instruction in thread.code
        if instruction.op_class.is_memory()
    )


def run() -> ExperimentResult:
    result = ExperimentResult(
        EXPERIMENT_ID, "Dataflow facts: exact pruning, sharper verdicts, safe speculation"
    )
    tests = all_tests()
    programs = [test.program for test in tests]
    fig8 = build_program()
    fig8_alias = build_aliasing_program()

    # --- 1. pruned enumeration is exact --------------------------------
    mismatches: list[str] = []
    reductions: dict[str, float] = {}
    base_seconds = pruned_seconds = 0.0
    for program in programs + [fig8, fig8_alias]:
        facts = compute_static_facts(program)
        scanned = pruned = 0
        for model_name in _MODELS:
            model = get_model(model_name)
            start = time.perf_counter()
            baseline = enumerate_behaviors(program, model)
            base_seconds += time.perf_counter() - start
            start = time.perf_counter()
            accelerated = enumerate_behaviors(program, model, facts=facts)
            pruned_seconds += time.perf_counter() - start
            if baseline.register_outcomes() != accelerated.register_outcomes():
                mismatches.append(f"{program.name}/{model_name}")
            scanned += accelerated.stats.candidates_scanned
            pruned += accelerated.stats.candidates_pruned
        if scanned:
            reductions[program.name] = pruned / scanned
    result.claim(
        f"pruned enumeration is outcome-identical to unpruned on "
        f"{len(programs) + 2} programs × {len(_MODELS)} models",
        [],
        mismatches,
    )

    register_tests = [
        program.name
        for program in programs + [fig8, fig8_alias]
        if uses_register_addresses(program) and program.name in reductions
    ]
    mean_reduction = sum(reductions[name] for name in register_tests) / max(
        len(register_tests), 1
    )
    result.claim(
        "mean candidate-scan reduction on register-computed-address tests ≥ 20%",
        True,
        mean_reduction >= 0.20,
    )

    # --- 2. precision strictly improves over the syntactic analyzer ----
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

    # --- 3. speculation safety vs the fig89/valuespec machinery --------
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

    top = sorted(reductions.items(), key=lambda item: -item[1])[:8]
    result.details = "\n".join(
        [
            f"enumeration wall-clock: baseline {base_seconds:.2f}s, "
            f"with facts {pruned_seconds:.2f}s",
            f"register-address tests: {', '.join(register_tests)} "
            f"(mean scan reduction {mean_reduction:.0%})",
            f"conservative programs: {legacy_conservative} syntactic -> "
            f"{precise_conservative} precise; over-approximated findings: "
            f"{legacy_approx} -> {precise_approx}",
            "",
            "largest candidate-scan reductions:",
            *(f"  {name:<16} {reduction:.0%}" for name, reduction in top),
        ]
    )
    return result
