"""TAB-RELACQ — acquire/release access annotations as half fences.

The paper's conclusion calls for "an ISA specification which permits
maximum flexibility in implementation and yet provides an easy to
understand memory model".  Modern ISAs answer with per-access
acquire/release annotations; this experiment adds them to the framework
(they compose with any reordering table as half fences) and checks the
classic discriminations:

* release+acquire fix message passing on every model,
* they do NOT fix store buffering (RA is strictly weaker than SC),
* acquire loads supply exactly the load-store order LB needs,
* a release-store/acquire-CAS lock hands off its protected data,
* the annotated programs still cross-validate against the operational
  store-buffer machines (a PSO release store waits for the buffer).
"""

from __future__ import annotations

from repro.core.enumerate import enumerate_behaviors
from repro.litmus.library import get_test
from repro.litmus.runner import run_litmus
from repro.models.registry import get_model
from repro.operational.storebuffer import run_pso, run_tso
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "TAB-RELACQ"

MODELS = ("sc", "tso", "pso", "weak")


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Acquire/release annotations")

    mp_ra = get_test("MP+ra")
    result.claim(
        "MP+ra forbidden under every model",
        {name: False for name in MODELS},
        {name: run_litmus(mp_ra, name).holds for name in MODELS},
    )
    result.claim(
        "plain MP is observable under WEAK (the annotations did the work)",
        True,
        run_litmus(get_test("MP"), "weak").holds,
    )

    sb_ra = get_test("SB+ra")
    result.claim(
        "SB+ra stays observable under TSO/PSO/WEAK (RA < SC)",
        {"sc": False, "tso": True, "pso": True, "weak": True},
        {name: run_litmus(sb_ra, name).holds for name in MODELS},
    )

    lb_acq = get_test("LB+acq")
    result.claim(
        "LB+acq forbidden under WEAK (acquire supplies load→store order)",
        False,
        run_litmus(lb_acq, "weak").holds,
    )

    handoff = get_test("lock-handoff")
    result.claim(
        "lock handoff: an acquiring taker always sees the protected data",
        {name: False for name in MODELS},
        {name: run_litmus(handoff, name).holds for name in MODELS},
    )

    mismatch = []
    for test_name in ("MP+ra", "SB+ra"):
        program = get_test(test_name).program
        for model_name, machine in (("tso", run_tso), ("pso", run_pso)):
            axiomatic = enumerate_behaviors(
                program, get_model(model_name)
            ).register_outcomes()
            if axiomatic != machine(program).outcomes:
                mismatch.append(f"{test_name}/{model_name}")
    result.claim(
        "annotated programs: axiomatic ≡ operational store-buffer machines",
        [],
        mismatch,
    )
    return result
