"""The benchmark's programs and its pinned correctness references.

Every timed call is checked against ``expected/references.json``: per
(program, model) item the execution count and a digest of the register
outcomes, and the text of the cold programs the service workload submits.
The references do not depend on the workload seed: a seed only reorders
threads and items, which changes neither outcomes nor execution counts.
Fuzz campaigns are not pinned here: their grid depends on the oracle
registry, which may change without any result changing, so a run checks
that every program is free of discrepancies and that repeated runs of a
campaign agree.

``run.py --gen`` rewrites the file.  Before writing, it checks every weak
item against the other engine (``enumerate_behaviors`` against
``solve_behaviors``) and every sc/tso/pso item's outcomes against the
operational machines, and refuses to write if any disagree.  Where a
machine's state space exceeds its budget (the wide family under sc), the
item is checked against the other engine instead.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path
from time import perf_counter

from repro.analysis.solver import solve_behaviors
from repro.core.enumerate import EnumerationLimits, enumerate_behaviors
from repro.errors import EnumerationError
from repro.experiments.scaling import chain_program, sb_chain
from repro.isa.assembler import assemble_program
from repro.isa.disassembler import disassemble
from repro.isa.program import Program
from repro.litmus.families import sb_ring
from repro.litmus.library import all_tests, get_test
from repro.models import get_model
from repro.operational import run_pso, run_sc, run_tso

PATH = Path(__file__).resolve().parent / "expected" / "references.json"
FORMAT = 1

MODELS = ("sc", "tso", "pso", "weak")
MACHINES = {"sc": run_sc, "tso": run_tso, "pso": run_pso}

#: Programs whose references come from the solver: the enumerator walks a
#: 2^t lattice on them (it still cross-checks them, in about a minute).
SOLVER_FIRST = re.compile(r"wide-\d+")

#: Cold-pool programs: fuzzgen draws whose enumeration explores at most
#: this many behaviors under every model, so cold job latency measures the
#: service path and not one unlucky program.
COLD_POOL_SIZE = 100
COLD_POOL_SEED = 20060617
COLD_MAX_EXPLORED = 400


def wide_program(threads: int) -> Program:
    """``threads`` threads each storing a private location then loading a
    shared, never-written one: one behavior, but a 2^t resolution lattice
    for the enumerator."""
    lines = [f"test wide-{threads}"]
    for index in range(threads):
        lines += [f"thread P{index}", f"    S y{index}, 1", f"    r{index} = L x"]
    return assemble_program("\n".join(lines))


def program_named(name: str, refs: dict | None = None) -> Program:
    """A family instance (``fanout-4x1``, ``sb-chain-3``, ``sb-ring-6``,
    ``wide-12``), a cold-pool program, or a litmus library test."""
    if refs is not None and name in refs["cold_pool"]:
        return assemble_program(refs["cold_pool"][name])
    match = re.fullmatch(r"fanout-(\d+)x(\d+)", name)
    if match:
        return chain_program(int(match[1]), int(match[2]))
    match = re.fullmatch(r"(sb-chain|sb-ring|wide)-(\d+)", name)
    if match is None:
        return get_test(name).program
    family, size = match[1], int(match[2])
    if family == "sb-chain":
        return sb_chain(size)
    if family == "sb-ring":
        return sb_ring(size).program
    return wide_program(size)


def shuffle_threads(program: Program, rng: random.Random) -> Program:
    """The same program with its threads in another order; every thread
    keeps its name, so outcomes and execution counts are unchanged."""
    threads = list(program.threads)
    rng.shuffle(threads)
    return Program(threads, dict(program.initial_memory), program.name)


def canonical_outcomes(outcomes) -> list:
    """Register outcomes sorted as :func:`repro.service.jobs.canonical_result`
    sorts them."""
    return sorted(
        sorted([thread, register, value] for (thread, register), value in outcome)
        for outcome in outcomes
    )


def outcome_digest(canonical: list) -> str:
    text = json.dumps(canonical, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def result_reference(result) -> dict:
    """The reference of an enumeration or solver result."""
    return {
        "executions": len(result.executions),
        "outcomes": outcome_digest(canonical_outcomes(result.register_outcomes())),
    }


def grid_digest(grid) -> str:
    text = json.dumps(grid.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def load() -> dict:
    refs = json.loads(PATH.read_text(encoding="utf-8"))
    if refs.get("format") != FORMAT:
        raise ValueError(f"{PATH} has format {refs.get('format')!r}, expected {FORMAT}")
    return refs


# -- generation ---------------------------------------------------------------


def _cold_pool() -> dict[str, str]:
    from repro.testing.fuzzgen import MIXED, derive_seed, generate_program, profile_for_index

    pool: dict[str, str] = {}
    seen: set[str] = set()
    index = 0
    while len(pool) < COLD_POOL_SIZE:
        program = generate_program(
            derive_seed(COLD_POOL_SEED, index), profile_for_index(MIXED, index)
        )
        index += 1
        body = disassemble(program).split("\n", 1)[1]
        if body in seen:
            continue
        name = f"cold-{len(pool):03d}"
        source = f"test {name}\n{body}"
        renamed = assemble_program(source)
        cap = EnumerationLimits(max_behaviors=COLD_MAX_EXPLORED)
        if all(enumerate_behaviors(renamed, get_model(m), cap).complete for m in MODELS):
            seen.add(body)
            pool[name] = source
    return pool


def _check_item(key: str, program: Program) -> tuple[dict, list[str]]:
    """The item's reference and any disagreement between engines."""
    name, model = key.rsplit("/", 1)
    enumerated = solved = None
    if SOLVER_FIRST.fullmatch(name):
        solved = solve_behaviors(program, model)
        primary = solved
    else:
        enumerated = enumerate_behaviors(program, get_model(model))
        primary = enumerated
    reference = result_reference(primary)
    problems = []
    if not primary.complete:
        problems.append(f"{key}: incomplete ({primary.status})")
    machine = None
    if model != "weak":
        try:
            machine = MACHINES[model](program).outcomes
        except EnumerationError:
            pass  # the machine's state space is too large: use the other engine
    if machine is not None:
        if outcome_digest(canonical_outcomes(machine)) != reference["outcomes"]:
            problems.append(f"{key}: outcomes differ from the {model} machine")
    else:
        other = (
            enumerate_behaviors(program, get_model(model)) if enumerated is None
            else solve_behaviors(program, model)
        )
        if not other.complete or result_reference(other) != reference:
            problems.append(f"{key}: enumerate_behaviors and solve_behaviors disagree")
    return reference, problems


def campaign(seed: int, budget: int, scratch: Path):
    """One fresh guided campaign with its own cache under ``scratch``:
    the report, its seconds, and what it observed (program count, grid
    cell count, grid digest)."""
    from repro.cache import BehaviorCache
    from repro.testing import coverage

    cache_dir = scratch / "cache"
    try:
        start = perf_counter()
        report = coverage.run_guided_campaign(
            scratch / "campaign", seed=seed, budget=budget, cache_dir=cache_dir
        )
        seconds = perf_counter() - start
    finally:
        # Flush the process-shared cache now, not at exit into a removed directory.
        BehaviorCache.shared(cache_dir).close()
    grid = report.state.grid
    observed = {
        "programs": len(report.verdicts),
        "cells": len(grid),
        "grid": grid_digest(grid),
    }
    return report, seconds, observed


def generate(item_keys) -> dict:
    """Compute and cross-check the references of ``item_keys``
    (``program/model``) and of the cold pool; raise if any disagree."""
    cold_pool = _cold_pool()
    print(f"cold pool: {len(cold_pool)} programs")
    keys = sorted(set(item_keys) | {f"{name}/{m}" for name in cold_pool for m in MODELS})
    refs = {"format": FORMAT, "cold_pool": cold_pool, "items": {}}
    problems: list[str] = []
    for key in keys:
        name = key.rsplit("/", 1)[0]
        reference, found = _check_item(key, program_named(name, refs))
        refs["items"][key] = reference
        problems += found
    print(f"items: {len(keys)} checked")
    if problems:
        raise RuntimeError("references disagree:\n  " + "\n  ".join(problems))
    return refs


def library_keys() -> list[str]:
    return [f"{test.name}/{model}" for test in all_tests() for model in MODELS]
