"""TAB-STATIC — static delay-set analysis cross-validated dynamically.

The Shasha & Snir layer (`repro.analysis.static`) answers race and
fence questions without enumeration; this experiment holds it to the
axiomatic/operational cross-validation discipline: on the whole litmus
library, every race `wellsync` observes dynamically and every fence
site `fencesynth` synthesizes must be predicted (or over-approximated)
statically.  Soundness is asserted — zero misses — and precision is
reported, alongside the model-linter verdicts (only the Figure 11
``naive-tso`` strawman errors) and the statically-proved
``SC ⊆ TSO ⊆ PSO ⊆ WEAK`` lattice.  Both passes are timed and the ratio
is reported in the details, but no claim rests on wall-clock time: the
≥10x floor is enforced by the fencesynth gate of ``benchmarks/gates.py``
(``MIN_STATIC_SPEEDUP``), which times the same passes.
"""

from __future__ import annotations

import time

from repro.analysis.fencesynth import synthesize_fences
from repro.analysis.static import (
    analyze_program,
    canonical_chain_findings,
    lint_model,
    statically_contained,
)
from repro.analysis.static.modellint import PAPER_MODELS
from repro.analysis.wellsync import check_well_synchronized
from repro.experiments.base import ExperimentResult
from repro.experiments.fencesynth_exp import EXPECTED as FENCE_EXPECTED
from repro.isa.lint import LintLevel
from repro.litmus.library import all_tests

EXPERIMENT_ID = "TAB-STATIC"

#: Models for the fence-soundness sweep (SC needs no fences anywhere).
_FENCE_MODELS = ("tso", "pso", "weak")


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Static delay-set analysis, cross-validated")
    tests = all_tests()

    # --- model linter: only the Figure 11 strawman errors -------------
    erroring = sorted(
        name
        for name in PAPER_MODELS
        if any(f.level is LintLevel.ERROR for f in lint_model(name))
    )
    result.claim(
        "model linter flags exactly the naive-tso strawman as erroneous",
        ["naive-tso"],
        erroring,
    )
    result.claim(
        "the canonical lattice SC ⊆ TSO ⊆ PSO ⊆ WEAK is statically provable",
        [],
        [str(f) for f in canonical_chain_findings()],
    )
    result.claim(
        "containment of tso in the dependency-breaking naive-tso is NOT claimed",
        None,
        statically_contained("tso", "naive-tso"),
    )

    # --- race soundness: wellsync races are all predicted -------------
    static_start = time.perf_counter()
    static_reports = {test.name: analyze_program(test.program, "weak") for test in tests}
    static_seconds = time.perf_counter() - static_start

    dynamic_start = time.perf_counter()
    missed_races: list[str] = []
    dynamic_races = 0
    static_races = sum(len(report.races) for report in static_reports.values())
    for test in tests:
        report = check_well_synchronized(test.program, "weak", frozenset())
        for race in report.races:
            dynamic_races += 1
            if not static_reports[test.name].predicts_race(race.thread, race.location):
                missed_races.append(f"{test.name}: {race.thread} @ {race.location}")
    result.claim(
        "zero dynamically-observed races are missed by the static analyzer",
        [],
        missed_races,
    )

    # --- fence soundness: every synthesized fence site is covered -----
    missed_sites: list[str] = []
    precision: list[str] = []
    for model_name in _FENCE_MODELS:
        for test in tests:
            synthesis = synthesize_fences(test, model_name)
            if synthesis.fence_count in (None, 0):
                continue
            static = analyze_program(test.program, model_name)
            for solution in synthesis.solutions:
                for site in solution:
                    if not static.covers_site(site.thread, site.position):
                        missed_sites.append(
                            f"{test.name}/{model_name}: {site.thread}@{site.position}"
                        )
            precision.append(
                f"{test.name:<16} {model_name:<6} "
                f"dynamic fences={synthesis.fence_count} "
                f"static delays={len(static.delays)}"
            )
    dynamic_seconds = time.perf_counter() - dynamic_start
    result.claim(
        "zero synthesized fence sites fall outside the static delay edges",
        [],
        missed_sites,
    )

    # --- precision against the folklore table -------------------------
    for (test_name, model_name), expected_solutions in FENCE_EXPECTED.items():
        static = static_reports.get(test_name)
        if static is None or static.model_name != model_name:
            static = analyze_program(
                next(t for t in tests if t.name == test_name).program, model_name
            )
        expected_sites = sorted(
            {(site.thread, site.position) for solution in expected_solutions for site in solution}
        )
        result.claim(
            f"{test_name} under {model_name}: static fence sites match the "
            f"folklore synthesis exactly",
            expected_sites,
            sorted((s.thread, s.position) for s in static.fence_sites),
        )

    speedup = dynamic_seconds / max(static_seconds, 1e-9)
    result.details = "\n".join(
        [
            f"library: {len(tests)} tests; static pass {static_seconds * 1e3:.1f} ms, "
            f"dynamic pass {dynamic_seconds * 1e3:.1f} ms (speedup {speedup:.0f}×, "
            "floor enforced by benchmarks/gates.py)",
            f"races: {dynamic_races} dynamic, {static_races} statically predicted "
            f"(precision {dynamic_races / max(static_races, 1):.2f})",
            "",
            "precision per fenced (test, model):",
            *precision,
        ]
    )
    return result
