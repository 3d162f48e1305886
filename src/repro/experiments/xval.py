"""TAB-XVAL — axiomatic enumeration vs operational reference machines.

The strongest end-to-end validation of the framework: for every litmus
test in the library, the axiomatic enumerator under

* the SC table must produce exactly the interleaving machine's outcomes,
* the TSO model must produce exactly the FIFO store-buffer machine's
  outcomes,
* the PSO model must produce exactly the per-address-FIFO machine's
  outcomes,
* the WEAK model (and its CoRR-strengthened variant) must produce
  exactly the ≺-linearization *dataflow machine's* outcomes — the
  operational face of the paper's serializability theorem.

Equality (not mere inclusion) means the reordering-table + Store
Atomicity formulation and the hardware-style operational formulations
define the same models on these programs.
"""

from __future__ import annotations

from repro.core.enumerate import enumerate_behaviors
from repro.litmus.library import all_tests
from repro.models.registry import get_model
from repro.operational.dataflow import run_dataflow
from repro.operational.sc import run_sc
from repro.operational.storebuffer import run_pso, run_tso
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "TAB-XVAL"

_PAIRS = (
    ("sc", run_sc, False),
    ("tso", run_tso, False),
    ("pso", run_pso, False),
    ("weak", lambda program: run_dataflow(program, "weak"), True),
    ("weak-corr", lambda program: run_dataflow(program, "weak-corr"), True),
)


def run() -> ExperimentResult:
    result = ExperimentResult(
        EXPERIMENT_ID, "Axiomatic vs operational model equivalence"
    )
    tests = all_tests()
    lines = []
    for model_name, operational, straight_line_only in _PAIRS:
        model = get_model(model_name)
        mismatched = []
        count = 0
        for test in tests:
            if straight_line_only and test.program.has_branches():
                continue  # the dataflow machine cannot speculate branches
            count += 1
            axiomatic = enumerate_behaviors(test.program, model).register_outcomes()
            reference = operational(test.program).outcomes
            if axiomatic != reference:
                mismatched.append(test.name)
            lines.append(
                f"{test.name:<16} {model_name:<9} axiomatic={len(axiomatic):<3} "
                f"operational={len(reference):<3} "
                f"{'==' if axiomatic == reference else 'DIFFER'}"
            )
        result.claim(
            f"{model_name}: axiomatic == operational on all {count} applicable tests",
            [],
            mismatched,
        )
    result.details = "\n".join(lines)
    return result
