"""Golden pin of the static layer and the ≺-linearization machine.

Four blake2b digests, one per observable surface:

* ``CYCLES_DIGEST`` — :func:`find_critical_cycles`, in order, on the
  precise (dataflow-backed) and the syntactic access lists;
* ``ANALYSIS_DIGEST`` — :func:`analyze_program`'s delay edges, fence
  sites and ``summary()`` text, precise and syntactic, under sc, tso,
  pso and weak;
* ``VERDICT_DIGEST`` — :func:`speculation_safety` and
  :func:`certify_robustness` verdicts under the same four models;
* ``DATAFLOW_DIGEST`` — :func:`run_dataflow` as (sorted outcomes,
  ``states_explored``, ``terminal_states``) on the branch-free programs
  under weak, weak-corr and sc.  The two counts belong to the machine's
  local-step reduction; its outcome sets alone are pinned by
  ``tests/test_operational_golden.py``.

Programs: the whole litmus library plus a fixed slice of the
mixed-profile fuzz stream.  None of them reaches the cycle cap, so a
search or machine that claims to keep every verdict must leave all four
digests alone.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.static import (
    analyze_program,
    certify_robustness,
    compute_static_facts,
    speculation_safety,
)
from repro.analysis.static.conflict import collect_accesses, find_critical_cycles
from repro.litmus.library import all_tests
from repro.operational.dataflow import run_dataflow
from repro.testing.fuzzgen import MIXED, derive_seed, generate_program, profile_for_index

MODELS = ("sc", "tso", "pso", "weak")
DATAFLOW_MODELS = ("weak", "weak-corr", "sc")
FUZZ_SEED = 7
FUZZ_SLICE = range(60)

CYCLES_DIGEST = "c5ca6a805fcac9a26b9ff94c83a041d5"
ANALYSIS_DIGEST = "b3a9f10cd44e7ef3609cc3a52d1e68af"
VERDICT_DIGEST = "0f68b9868c213ad5abefd9f0741220b4"
DATAFLOW_DIGEST = "b3bef590046abfc83540dcbd3be75b74"


def _programs():
    for test in all_tests():
        yield test.name, test.program
    for index in FUZZ_SLICE:
        yield f"fuzz-{index}", generate_program(
            derive_seed(FUZZ_SEED, index), profile_for_index(MIXED, index)
        )


def _update(digest, value) -> None:
    digest.update(repr(value).encode())
    digest.update(b"\n")


def _cycles_digest() -> str:
    digest = hashlib.blake2b(digest_size=16)
    for name, program in _programs():
        precise = collect_accesses(program, compute_static_facts(program))
        for label, accesses in (("precise", precise), ("syntactic", collect_accesses(program))):
            cycles = find_critical_cycles(program, accesses)
            _update(digest, (name, label, [tuple(map(str, cycle)) for cycle in cycles]))
    return digest.hexdigest()


def _analysis_digest() -> str:
    digest = hashlib.blake2b(digest_size=16)
    for name, program in _programs():
        for model_name in MODELS:
            for precise in (True, False):
                report = analyze_program(program, model_name, precise=precise)
                _update(digest, (
                    name, model_name, precise,
                    [(str(d), d.exact) for d in report.delays],
                    [str(site) for site in report.fence_sites],
                    report.summary(),
                ))
    return digest.hexdigest()


def _verdict_digest() -> str:
    digest = hashlib.blake2b(digest_size=16)
    for name, program in _programs():
        facts = compute_static_facts(program)
        for model_name in MODELS:
            speculation = speculation_safety(program, model_name, facts)
            certificate = certify_robustness(program, model_name, facts=facts)
            _update(digest, (
                name, model_name,
                [str(load) for load in speculation.loads],
                certificate.verdict,
                [str(d) for d in certificate.delays],
                certificate.summary(),
            ))
    return digest.hexdigest()


def _dataflow_digest() -> tuple[str, int]:
    digest = hashlib.blake2b(digest_size=16)
    runs = 0
    for name, program in _programs():
        if program.has_branches():
            continue
        for model_name in DATAFLOW_MODELS:
            result = run_dataflow(program, model_name)
            outcomes = sorted(repr(sorted(outcome, key=repr)) for outcome in result.outcomes)
            _update(digest, (name, model_name, outcomes,
                             result.states_explored, result.terminal_states))
            runs += 1
    return digest.hexdigest(), runs


def test_critical_cycles_match_golden_digest():
    assert _cycles_digest() == CYCLES_DIGEST


def test_static_reports_match_golden_digest():
    assert _analysis_digest() == ANALYSIS_DIGEST


def test_static_verdicts_match_golden_digest():
    assert _verdict_digest() == VERDICT_DIGEST


@pytest.mark.slow
def test_dataflow_results_match_golden_digest():
    digest, runs = _dataflow_digest()
    assert runs > 100, "the pin must cover the branch-free library and fuzz slice"
    assert digest == DATAFLOW_DIGEST
