"""TAB-FENCEREPAIR — static fence repair cross-validated against enumeration.

The tentpole claim of the static repair layer: on every (library test,
model) pair the purely static set-cover repair of
:mod:`repro.analysis.static.fencerepair` returns *byte-identical*
minimal fence sets to the enumerative ground truth
``synthesize_fences(..., target="robust")`` — same solutions, same
order.  Both sweeps are timed and the ratio is reported in the details,
but no claim rests on wall-clock time: the ≥10x floor is enforced by
the fencesynth gate of ``benchmarks/gates.py`` (``MIN_FENCE_SPEEDUP``),
which times the same sweep.  Alongside it:

* every static **SC-robust** certificate is confirmed by enumeration
  (the model's behavior signature collapses to SC's),
* the folklore answers fall out of the static path alone — MP needs
  both fences under WEAK but only the writer-side fence under PSO
  (the PSO/WEAK asymmetry), SB needs one per thread, IRIW both
  reader-side fences, R exactly P1's store→load fence on TSO,
* the cheapest acquire/release upgrade plans (table-priced) repair MP
  under WEAK at cost 2, and applying one makes the program
  enumeratively robust,
* portability down the SC ⊆ TSO ⊆ PSO ⊆ WEAK lattice: MP verified
  under TSO breaks on PSO (writer-side repair) and on WEAK (both).
"""

from __future__ import annotations

import time

from repro.analysis.fencesynth import behavior_signature, synthesize_fences
from repro.analysis.sites import FenceSite
from repro.analysis.static import (
    apply_repairs,
    certify_robustness,
    check_portability,
    repair_fences,
    repair_upgrades,
)
from repro.analysis.static.dataflow import compute_static_facts
from repro.core.enumerate import enumerate_behaviors
from repro.experiments.base import ExperimentResult
from repro.litmus.library import all_tests, get_test
from repro.models.registry import get_model

EXPERIMENT_ID = "TAB-FENCEREPAIR"

MODELS = ("sc", "tso", "naive-tso", "pso", "weak", "weak-spec", "weak-corr")

#: Folklore minimal repairs, reproduced by the *static* path alone.
EXPECTED_STATIC = {
    ("SB", "weak"): ((FenceSite("P0", 1), FenceSite("P1", 1)),),
    ("SB", "tso"): ((FenceSite("P0", 1), FenceSite("P1", 1)),),
    ("MP", "weak"): ((FenceSite("P0", 1), FenceSite("P1", 1)),),
    ("MP", "pso"): ((FenceSite("P0", 1),),),
    ("R", "tso"): ((FenceSite("P1", 1),),),
    ("IRIW", "weak"): ((FenceSite("P2", 1), FenceSite("P3", 1)),),
    ("LB", "weak"): ((FenceSite("P0", 1), FenceSite("P1", 1)),),
}


def _sc_robust_confirmed(program) -> bool:
    """Enumerative confirmation of a robust certificate: the model's
    behavior signature is contained in SC's."""
    locations = program.locations()
    sc_signature = behavior_signature(
        enumerate_behaviors(program, get_model("sc")), locations
    )
    return all(
        behavior_signature(enumerate_behaviors(program, get_model(name)), locations)
        <= sc_signature
        for name in ("tso", "pso", "weak")
        if certify_robustness(program, name).robust
    )


def run() -> ExperimentResult:
    result = ExperimentResult(
        EXPERIMENT_ID, "Static fence repair vs. enumerative synthesis"
    )
    tests = all_tests()

    # -- the agreement sweep: every (test, model) pair, both engines ----
    mismatches: list[str] = []
    incomplete: list[str] = []
    static_results = {}
    static_seconds = 0.0
    for test in tests:
        start = time.perf_counter()
        facts = compute_static_facts(test.program)
        for model in MODELS:
            static_results[(test.name, model)] = repair_fences(
                test.program, model, facts=facts
            )
        static_seconds += time.perf_counter() - start
    enum_seconds = 0.0
    for test in tests:
        for model in MODELS:
            static = static_results[(test.name, model)]
            start = time.perf_counter()
            enum = synthesize_fences(
                test.program, model, target="robust", max_subsets=5000
            )
            enum_seconds += time.perf_counter() - start
            if not static.complete or not enum.complete:
                incomplete.append(f"{test.name}/{model}: {enum.reason}")
                continue
            static_solutions = sorted(tuple(s) for s in static.solutions)
            enum_solutions = sorted(tuple(s) for s in enum.solutions)
            if static_solutions != enum_solutions:
                mismatches.append(
                    f"{test.name}/{model}: static={static_solutions} "
                    f"enum={enum_solutions}"
                )
    pairs = len(tests) * len(MODELS)
    result.claim(
        f"static minimal fence sets are byte-identical to enumerative "
        f"robust synthesis on all {pairs} (test, model) pairs",
        [],
        mismatches,
    )
    result.claim(
        "no pair is truncated (both searches complete within budget)",
        [],
        incomplete,
    )

    # -- robust certificates confirmed by enumeration -------------------
    unconfirmed = [
        test.name for test in tests if not _sc_robust_confirmed(test.program)
    ]
    result.claim(
        "every static SC-robust certificate (tso/pso/weak) is confirmed "
        "by enumeration producing only SC behaviors",
        [],
        unconfirmed,
    )

    # -- the folklore table, statically --------------------------------
    for (test_name, model_name), expected in EXPECTED_STATIC.items():
        static = static_results[(test_name, model_name)]
        result.claim(
            f"{test_name} under {model_name}: static minimal repair is "
            f"{[tuple(map(str, s)) for s in expected]}",
            sorted(expected),
            sorted(tuple(s) for s in static.solutions),
        )
    result.claim(
        "the PSO/WEAK asymmetry: MP needs (writer-only, both) fences",
        (1, 2),
        (
            static_results[("MP", "pso")].fence_count,
            static_results[("MP", "weak")].fence_count,
        ),
    )
    result.claim(
        "MP is certified SC-robust under TSO, SB under SC",
        ("robust", "robust"),
        (
            certify_robustness(get_test("MP").program, "tso").verdict,
            certify_robustness(get_test("SB").program, "sc").verdict,
        ),
    )

    # -- acquire/release upgrade plans ---------------------------------
    mp = get_test("MP").program
    upgrades = repair_upgrades(mp, "weak")
    rel_acq = next(
        (
            plan
            for plan in upgrades.solutions
            if {(a.kind, a.thread, a.position) for a in plan}
            == {("release", "P0", 1), ("acquire", "P1", 0)}
        ),
        None,
    )
    result.claim(
        "cheapest repair of MP under WEAK costs 2 newly-enforced pairs "
        "and includes the release-store/acquire-load plan",
        (2, True),
        (upgrades.best_cost, rel_acq is not None),
    )
    if rel_acq is not None:
        repaired = apply_repairs(mp, rel_acq)
        locations = mp.locations()
        sc_signature = behavior_signature(
            enumerate_behaviors(mp, get_model("sc")), locations
        )
        weak_signature = behavior_signature(
            enumerate_behaviors(repaired, get_model("weak")), locations
        )
        result.claim(
            "applying the release/acquire plan makes MP enumeratively "
            "SC-robust under WEAK",
            True,
            weak_signature <= sc_signature,
        )

    # -- portability down the lattice ----------------------------------
    portability = check_portability(mp, verified_under="tso")
    pso_step = portability.step("pso")
    weak_step = portability.step("weak")
    result.claim(
        "MP verified under TSO is not portable to PSO; the repair is the "
        "writer-side fence",
        ("not-portable", [(FenceSite("P0", 1),)]),
        (pso_step.verdict, pso_step.repairs),
    )
    result.claim(
        "MP verified under TSO is not portable to WEAK; the repair is "
        "both fences",
        ("not-portable", [(FenceSite("P0", 1), FenceSite("P1", 1))]),
        (weak_step.verdict, weak_step.repairs),
    )
    sb_step = check_portability(get_test("SB").program, verified_under="sc").step("tso")
    result.claim(
        "SB verified under SC is not portable to TSO",
        "not-portable",
        sb_step.verdict,
    )

    speedup = enum_seconds / static_seconds if static_seconds > 0 else float("inf")
    robust_pairs = sum(
        1 for repair in static_results.values() if repair.already_robust
    )
    result.details = "\n".join(
        [
            f"pairs: {pairs} ({len(tests)} tests x {len(MODELS)} models), "
            f"{robust_pairs} already robust",
            f"static sweep: {static_seconds:.3f}s   "
            f"enumerative sweep: {enum_seconds:.3f}s   speedup: {speedup:.1f}x "
            f"(floor enforced by benchmarks/gates.py, not here)",
            "",
            static_results[("MP", "weak")].summary(),
            static_results[("MP", "pso")].summary(),
            upgrades.summary(),
            "",
            portability.summary(),
        ]
    )
    return result
