"""TAB-CYCLES — critical-cycle test synthesis (Shasha & Snir via diy).

The framework is "parameterized by a set of reordering rules; it is easy
to experiment with a broad range of memory models".  This experiment
turns that around: from a *cycle of relaxations* it synthesizes a litmus
test and predicts its verdict under every model purely from the
reordering table —

    observable under M  ⟺  some plain Pod edge of the cycle is
    relaxable under M

— then validates every prediction against the full enumerator.  The
catalogue covers the canonical shapes (SB, MP, LB, 2+2W, IRIW, R, S,
Z6.*) plus fenced variants, 4 models each.
"""

from __future__ import annotations

from repro.litmus.generator import EdgeKindSpec as E
from repro.litmus.generator import generate, predict_verdict
from repro.litmus.runner import run_litmus
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "TAB-CYCLES"

CATALOGUE = {
    "gen-SB": [E.FRE, E.POD_WR, E.FRE, E.POD_WR],
    "gen-SB+ff": [E.FRE, E.FEN_WR, E.FRE, E.FEN_WR],
    "gen-MP": [E.POD_WW, E.RFE, E.POD_RR, E.FRE],
    "gen-MP+wf": [E.FEN_WW, E.RFE, E.POD_RR, E.FRE],
    "gen-MP+ff": [E.FEN_WW, E.RFE, E.FEN_RR, E.FRE],
    "gen-LB": [E.POD_RW, E.RFE, E.POD_RW, E.RFE],
    "gen-2+2W": [E.POD_WW, E.WSE, E.POD_WW, E.WSE],
    "gen-IRIW": [E.RFE, E.POD_RR, E.FRE, E.RFE, E.POD_RR, E.FRE],
    "gen-IRIW+ff": [E.RFE, E.FEN_RR, E.FRE, E.RFE, E.FEN_RR, E.FRE],
    "gen-R": [E.POD_WW, E.WSE, E.POD_WR, E.FRE],
    "gen-S": [E.POD_WW, E.RFE, E.POD_RW, E.WSE],
    "gen-W+RWC": [E.RFE, E.POD_RR, E.FRE, E.POD_WR, E.FRE],
    "gen-Z6.3": [E.POD_WW, E.RFE, E.POD_RW, E.WSE, E.POD_WW, E.WSE],
}

MODELS = ("sc", "tso", "pso", "weak")


def run() -> ExperimentResult:
    result = ExperimentResult(
        EXPERIMENT_ID, "Critical-cycle synthesis with predicted verdicts"
    )
    mismatches = []
    lines = [f"{'cycle':<14}" + "".join(f"{m:>6}" for m in MODELS)]
    sc_observable = []
    for name, cycle in CATALOGUE.items():
        generated = generate(cycle, name)
        row = f"{name:<14}"
        for model_name in MODELS:
            predicted = predict_verdict(generated, model_name)
            observed = run_litmus(generated.test, model_name).holds
            row += f"{'Yes' if observed else 'no':>6}"
            if predicted != observed:
                mismatches.append(f"{name}/{model_name}")
            if model_name == "sc" and observed:
                sc_observable.append(name)
        lines.append(row)

    result.claim(
        f"table-derived predictions match the enumerator on all "
        f"{len(CATALOGUE)} cycles × {len(MODELS)} models",
        [],
        mismatches,
    )
    result.claim(
        "no critical cycle is observable under SC (Shasha & Snir)",
        [],
        sc_observable,
    )
    fully_fenced = [name for name in CATALOGUE if "ff" in name]
    fenced_observable = [
        name
        for name in fully_fenced
        if any(run_litmus(generate(CATALOGUE[name], name).test, m).holds for m in MODELS)
    ]
    result.claim(
        "fully fenced cycles are forbidden under every model "
        "(communication edges are global: Store Atomicity)",
        [],
        fenced_observable,
    )
    result.details = "\n".join(lines)
    return result
