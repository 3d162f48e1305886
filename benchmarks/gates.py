"""The five pass/fail benchmark gates, run in a fixed order.

Each gate is one function ``gate(quick) -> (values, failures)``: the
measured values it records and a list of failure messages (empty when
the gate passes).  One shared block runs them all, writes one BENCH json
with a machine fingerprint, prints a ``FAIL:`` line per failure and
exits 1 when any gate failed.  A gate that raises fails; it is never
skipped.

* **hot-path** — copy-on-write ``Execution.copy()`` is ≥1.2x an eager
  graph copy; per-branch copy + dedup digest (what ``_branch`` pays) is
  ≥1.1x the seed's eager copy + state key; fanout-4x1/weak, whose search
  branches on one load at every step, computes at most one dedup
  digest, and dekker/weak still drops its 5 duplicates.
* **solver** — the SAT/AllSAT solver's behavior sets are byte-identical
  (``loadstore_key``) to the enumerator's on the litmus library and the
  wide family; nothing truncates; on the wide family the stable-load
  reduction is ≥5x faster than the full-eligibility search, ``wide-t``
  makes exactly ``t`` resolutions, fanout-4x1/weak makes no duplicate,
  and the solver's replay makes no more resolutions on fanout-4x1/weak
  than the enumerator.
* **fencesynth** — static and enumerative minimal fence sets agree;
  nothing truncates; the static sweep is ≥10x faster; TAB-STATIC's
  static race analysis of the library is ≥10x faster than its dynamic
  wellsync + fencesynth passes.
* **cache** — a warm sweep of the behavior cache is ≥5x faster than a
  cold one; the warm hit rate is ≥99%; cached results equal fresh ones;
  none of 20,000 novel keys is answered as a hit.
* **fuzzcov** — a coverage-guided campaign covers strictly more 3-d grid
  cells than the blind stream at equal budget; a campaign SIGKILL-ed
  after its first committed batch, before its budget is spent, and
  resumed reproduces the uninterrupted run's grid and corpus.

``--quick`` shrinks the model subsets and budgets; every gate and floor
still applies.  Per-cell timings are not recorded: end-to-end and
per-layer timing is ``perfbench``'s job.

Usage::

    PYTHONPATH=src python benchmarks/gates.py [--quick] [--out BENCH_gates.json]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from repro.analysis.fencesynth import synthesize_fences
from repro.analysis.solver import solve_behaviors, solve_behaviors_with_stats
from repro.analysis.static import analyze_program
from repro.analysis.static.dataflow import compute_static_facts
from repro.analysis.static.fencerepair import repair_fences
from repro.analysis.wellsync import check_well_synchronized
from repro.cache import BehaviorCache
import repro.core.enumerate as engine
from repro.core.enumerate import (
    EnumerationLimits,
    _enumerate_full_eligibility,
    enumerate_behaviors,
)
from repro.experiments.scaling import chain_program
from repro.isa.assembler import assemble_program
from repro.isa.program import Program
from repro.litmus.library import all_tests, get_test
from repro.models.registry import available_models, get_model
from repro.testing.coverage import blind_grid, load_campaign, run_guided_campaign


def _keys(result) -> list[str]:
    """The sorted ``loadstore_key`` set every agreement check compares."""
    return sorted(repr(e.loadstore_key()) for e in result.executions)


# -- hot-path ------------------------------------------------------------

#: Acceptance floor for copy-on-write vs eager copy.
MIN_COPY_RATIO = 1.2
#: Acceptance floor for the combined per-branch cost (copy + dedup digest)
#: vs the seed's (eager copy + materialized-reachability key) — the
#: number the search actually pays per Load-Resolution branch.
MIN_BRANCH_RATIO = 1.1
#: Work floors of the dedup layer: the digests fanout-4x1/weak may compute
#: (its initial behavior's; every child has a single-load lineage), and
#: the duplicates dekker/weak, which branches on several loads, must drop.
MAX_FANOUT_DIGESTS = 1
DEKKER_DUPLICATES = 5


def count_digests(program: Program, model_name: str):
    """``enumerate_behaviors`` with every ``_dedup_key`` call counted:
    the result and the number of digests its search computed."""
    real = engine._dedup_key
    calls = 0

    def counting(execution):
        nonlocal calls
        calls += 1
        return real(execution)

    engine._dedup_key = counting
    try:
        result = enumerate_behaviors(program, get_model(model_name))
    finally:
        engine._dedup_key = real
    return result, calls


def seed_style_state_key(behavior) -> tuple:
    """A faithful reconstruction of the seed's ``state_key`` — node
    states plus the *fully materialized* reachability relation as a
    frozenset of identity pairs — used as the baseline the bitset-derived
    key is measured against."""
    graph = behavior.graph
    identity = {node.nid: (node.tid, node.index) for node in graph.nodes}
    node_states = tuple(
        sorted(
            (
                node.tid,
                node.index,
                node.op_class.value,
                node.executed,
                node.value,
                node.addr,
                identity[node.source] if node.source is not None else None,
                node.writes,
                node.stored,
            )
            for node in graph.nodes
        )
    )
    order_pairs = frozenset(
        (identity[u], identity[v]) for u, v in graph.reachability_pairs()
    )
    bypass = frozenset((identity[u], identity[v]) for u, v in graph.bypass_edges())
    thread_states = tuple(
        (
            state.pc,
            state.halted,
            state.waiting_branch is not None,
            tuple(sorted((reg, identity[nid]) for reg, nid in state.regs.items())),
        )
        for state in behavior.threads
    )
    pending = frozenset((identity[u], identity[v]) for u, v in behavior.pending_alias)
    return (node_states, order_pairs, bypass, thread_states, pending)


def gate_hot_path(quick: bool) -> tuple[dict, list[str]]:
    """Per-branch microbenchmarks on a representative mid-search state
    (the deepest worklist entry of a budgeted fanout-5 run), plus two
    digest-count work floors that host noise cannot move.  ``quick``
    changes nothing: the gate already takes well under a second."""
    partial = enumerate_behaviors(
        chain_program(5), get_model("weak"), EnumerationLimits(max_behaviors=40)
    )
    behavior = partial.checkpoint.worklist[-1]

    def per_call_us(function, repeats: int = 2000, trials: int = 5) -> float:
        # Best-of-N: the minimum is the least noise-contaminated
        # estimate of the true per-call cost.
        best = float("inf")
        for _ in range(trials):
            start = time.perf_counter()
            for _ in range(repeats):
                function()
            best = min(best, (time.perf_counter() - start) / repeats * 1e6)
        return best

    cow_copy_us = per_call_us(behavior.copy)
    eager_copy_us = per_call_us(behavior.graph.copy)  # the seed's copy
    state_key_us = per_call_us(behavior.state_key)
    # Repeat calls find the settled nodes' fragments memoized, as a
    # Load-Resolution child finds those it shares with its parent.
    dedup_key_us = per_call_us(behavior.dedup_digest)
    loadstore_key_us = per_call_us(behavior.loadstore_key)
    seed_key_us = per_call_us(lambda: seed_style_state_key(behavior))

    _, fanout_digests = count_digests(chain_program(4, 1), "weak")
    dekker, _ = count_digests(get_test("dekker").program, "weak")

    branch_us = cow_copy_us + dedup_key_us
    seed_branch_us = eager_copy_us + seed_key_us
    copy_ratio = eager_copy_us / cow_copy_us if cow_copy_us else 0.0
    branch_ratio = seed_branch_us / branch_us if branch_us else 0.0
    values = {
        "graph_nodes": len(behavior.graph.nodes),
        "cow_copy_us": cow_copy_us,
        "eager_copy_us": eager_copy_us,
        "copy_ratio": copy_ratio,
        "min_copy_ratio": MIN_COPY_RATIO,
        "state_key_us": state_key_us,
        "dedup_key_us": dedup_key_us,
        "loadstore_key_us": loadstore_key_us,
        "seed_state_key_us": seed_key_us,
        "branch_us": branch_us,
        "seed_branch_us": seed_branch_us,
        "branch_ratio": branch_ratio,
        "min_branch_ratio": MIN_BRANCH_RATIO,
        "fanout_digests": fanout_digests,
        "max_fanout_digests": MAX_FANOUT_DIGESTS,
        "dekker_duplicates": dekker.stats.duplicates,
        "required_dekker_duplicates": DEKKER_DUPLICATES,
    }
    failures = []
    if fanout_digests > MAX_FANOUT_DIGESTS:
        failures.append(
            f"fanout-4x1/weak computed {fanout_digests} dedup digests "
            f"(at most {MAX_FANOUT_DIGESTS})"
        )
    if dekker.stats.duplicates != DEKKER_DUPLICATES:
        failures.append(
            f"dekker/weak dropped {dekker.stats.duplicates} duplicates, "
            f"not {DEKKER_DUPLICATES}"
        )
    if copy_ratio < MIN_COPY_RATIO:
        failures.append(
            f"copy-on-write copy only {copy_ratio:.2f}x faster than eager copy "
            f"(floor {MIN_COPY_RATIO}x)"
        )
    if branch_ratio < MIN_BRANCH_RATIO:
        failures.append(
            f"per-branch copy+digest cost only {branch_ratio:.2f}x better than seed "
            f"(floor {MIN_BRANCH_RATIO}x)"
        )
    return values, failures


# -- solver ----------------------------------------------------------------

#: Acceptance floor for the stable-load reduction's aggregate speedup over
#: the full-eligibility search on the wide family.
MIN_SOLVER_SPEEDUP = 5.0


def wide_program(threads: int) -> Program:
    """t threads × {store a private location; load a shared, never-stored
    one}: exactly one behavior, but the full-eligibility search's state
    space is the 2^t lattice of which loads have resolved, while the
    stable-load reduction resolves the t loads in one order and the
    solver pays one SAT proposal plus one O(t) replay."""
    lines = [f"test wide-{threads}"]
    for i in range(threads):
        lines.append(f"thread P{i}")
        lines.append(f"    S y{i}, 1")
        lines.append(f"    r{i} = L x")
    return assemble_program("\n".join(lines))


def gate_solver(quick: bool) -> tuple[dict, list[str]]:
    """Solver vs enumerator agreement over the litmus library × models
    and over the wide family; on the wide family also the stable-load
    reduction's speedup and work.

    The solver is an independent oracle, a second derivation of every
    behavior set, and the engine behind ``repro explain``; it is
    not a fast path.  Since the enumerator branches on one stable load
    where it can, the enumerator beats it on every scaling item.  So the
    speed floor measures what the wide family was built to expose: the
    reduced enumeration against the full-eligibility search (every
    eligible load branched on, as the well-sync check still does), on
    the same widths.  Three work floors back it that host noise cannot
    move: ``wide-t`` makes exactly ``t`` resolutions, fanout-4x1/weak
    makes no duplicate, and the solver materializes fanout-4x1/weak's
    models with no more resolutions than the enumerator makes (its
    depth-first walk shares one replay stack across models)."""
    models = ("tso", "weak") if quick else ("sc", "tso", "pso", "weak")
    widths = (8, 10) if quick else (8, 10, 12)
    library = [(test.program, model) for test in all_tests() for model in models]
    wide = [(wide_program(t), t, model) for t in widths for model in ("sc", "weak")]

    mismatches: list[str] = []
    truncated: list[str] = []

    def compare(program: Program, model_name: str) -> tuple[float, float, object]:
        start = time.perf_counter()
        enumerated = enumerate_behaviors(program, get_model(model_name))
        enum_seconds = time.perf_counter() - start
        start = time.perf_counter()
        solved = solve_behaviors(program, model_name)
        solver_seconds = time.perf_counter() - start
        label = f"{program.name}/{model_name}"
        if not (enumerated.complete and solved.complete):
            truncated.append(label)
        elif _keys(enumerated) != _keys(solved):
            mismatches.append(label)
        return enum_seconds, solver_seconds, enumerated

    for program, model_name in library:
        compare(program, model_name)
    enum_total = full_total = solver_total = 0.0
    resolutions: dict[str, int] = {}
    full_resolutions: dict[str, int] = {}
    work_failures: list[str] = []
    for program, threads, model_name in wide:
        enum_seconds, solver_seconds, enumerated = compare(program, model_name)
        start = time.perf_counter()
        full = _enumerate_full_eligibility(program, get_model(model_name))
        full_total += time.perf_counter() - start
        enum_total += enum_seconds
        solver_total += solver_seconds
        label = f"{program.name}/{model_name}"
        if not full.complete:
            truncated.append(f"{label} (full eligibility)")
        elif _keys(full) != _keys(enumerated):
            mismatches.append(f"{label} (full eligibility)")
        resolutions[label] = enumerated.stats.resolutions
        full_resolutions[label] = full.stats.resolutions
        if enumerated.stats.resolutions != threads:
            work_failures.append(
                f"{label} made {enumerated.stats.resolutions} resolutions, not {threads}"
            )
    fanout = enumerate_behaviors(chain_program(4, 1), get_model("weak"))
    if fanout.stats.duplicates:
        work_failures.append(f"fanout-4x1/weak made {fanout.stats.duplicates} duplicates, not 0")
    _, fanout_solved = solve_behaviors_with_stats(chain_program(4, 1), "weak")
    if fanout_solved.resolutions > fanout.stats.resolutions:
        work_failures.append(
            f"the solver made {fanout_solved.resolutions} resolutions on fanout-4x1/weak, "
            f"more than the enumerator's {fanout.stats.resolutions}"
        )

    speedup = full_total / enum_total if enum_total > 0 else float("inf")
    values = {
        "models": list(models),
        "widths": list(widths),
        "library_pairs": len(library),
        "wide_pairs": len(wide),
        "mismatches": mismatches,
        "truncated": truncated,
        "seconds_enum_wide_total": enum_total,
        "seconds_full_eligibility_wide_total": full_total,
        "seconds_solver_wide_total": solver_total,
        "speedup": speedup,
        "min_speedup": MIN_SOLVER_SPEEDUP,
        "wide_resolutions": resolutions,
        "wide_full_eligibility_resolutions": full_resolutions,
        "fanout_4x1_weak_duplicates": fanout.stats.duplicates,
        "fanout_4x1_weak_resolutions": fanout.stats.resolutions,
        "fanout_4x1_weak_solver_resolutions": fanout_solved.resolutions,
    }
    failures = []
    if mismatches:
        failures.append(
            f"solver and enumerator behavior sets differ on {', '.join(mismatches)}"
        )
    if truncated:
        failures.append(f"enumeration truncated on {', '.join(truncated)}")
    if speedup < MIN_SOLVER_SPEEDUP:
        failures.append(
            f"wide-family reduction speedup {speedup:.1f}x < {MIN_SOLVER_SPEEDUP:.0f}x floor"
        )
    failures += work_failures
    return values, failures


# -- fencesynth ------------------------------------------------------------

#: Acceptance floor for the static repair sweep's aggregate speedup.
MIN_FENCE_SPEEDUP = 10.0
#: Acceptance floor for TAB-STATIC's two passes over the library: the
#: static race analysis against dynamic wellsync + fencesynth.
MIN_STATIC_SPEEDUP = 10.0


def _static_analysis_passes() -> tuple[float, float]:
    """The two passes TAB-STATIC times: ``analyze_program`` under weak on
    every library test, and the dynamic wellsync race check under weak
    plus ``synthesize_fences`` under tso/pso/weak.  Returns (static
    seconds, dynamic seconds)."""
    tests = all_tests()
    start = time.perf_counter()
    for test in tests:
        analyze_program(test.program, "weak")
    static_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for test in tests:
        check_well_synchronized(test.program, "weak", frozenset())
    for model in ("tso", "pso", "weak"):
        for test in tests:
            synthesize_fences(test, model)
    return static_seconds, time.perf_counter() - start


def gate_fencesynth(quick: bool) -> tuple[dict, list[str]]:
    """Each (test, model) pair's minimal SC-robustness repairs, once by
    the static set-cover solver (dataflow facts shared per test) and once
    by enumerative ``synthesize_fences(..., target="robust")``; then
    TAB-STATIC's static race analysis against its dynamic passes."""
    models = (
        ("tso", "pso", "weak")
        if quick
        else ("sc", "tso", "naive-tso", "pso", "weak", "weak-spec", "weak-corr")
    )
    mismatches: list[str] = []
    truncated: list[str] = []
    static_total = enum_total = 0.0
    for test in all_tests():
        start = time.perf_counter()
        facts = compute_static_facts(test.program)
        static_total += time.perf_counter() - start
        for model in models:
            start = time.perf_counter()
            static = repair_fences(test.program, model, facts=facts)
            static_total += time.perf_counter() - start
            start = time.perf_counter()
            enum = synthesize_fences(test.program, model, target="robust", max_subsets=5000)
            enum_total += time.perf_counter() - start
            label = f"{test.name}/{model}"
            if not (static.complete and enum.complete):
                truncated.append(label)
            elif sorted(map(tuple, static.solutions)) != sorted(map(tuple, enum.solutions)):
                mismatches.append(label)

    speedup = enum_total / static_total if static_total > 0 else float("inf")
    analysis_static, analysis_dynamic = _static_analysis_passes()
    analysis_speedup = analysis_dynamic / max(analysis_static, 1e-9)
    values = {
        "models": list(models),
        "pairs": len(all_tests()) * len(models),
        "mismatches": mismatches,
        "truncated": truncated,
        "seconds_static_total": static_total,
        "seconds_enum_total": enum_total,
        "speedup": speedup,
        "min_speedup": MIN_FENCE_SPEEDUP,
        "seconds_static_analysis": analysis_static,
        "seconds_dynamic_analysis": analysis_dynamic,
        "static_analysis_speedup": analysis_speedup,
        "min_static_analysis_speedup": MIN_STATIC_SPEEDUP,
    }
    failures = []
    if mismatches:
        failures.append(
            f"static and enumerative minimal fence sets differ on {', '.join(mismatches)}"
        )
    if truncated:
        failures.append(f"search truncated on {', '.join(truncated)}")
    if speedup < MIN_FENCE_SPEEDUP:
        failures.append(f"speedup {speedup:.1f}x < {MIN_FENCE_SPEEDUP:.0f}x floor")
    if analysis_speedup < MIN_STATIC_SPEEDUP:
        failures.append(
            f"TAB-STATIC static analysis only {analysis_speedup:.1f}x faster than "
            f"wellsync + fencesynth < {MIN_STATIC_SPEEDUP:.0f}x floor"
        )
    return values, failures


# -- cache -----------------------------------------------------------------

#: Acceptance floor for the warm-over-cold wall-clock speedup.  A disk
#: hit (one open + read + JSON decode) must beat re-enumeration by a wide
#: margin even on the library's smallest tests.
MIN_WARM_SPEEDUP = 5.0
#: Acceptance floor for the warm-sweep hit rate.
MIN_HIT_RATE = 0.99
#: Novel-key lookups timed (and required to miss).
NOVEL_PROBES = 20000


def _cache_sweep(cells: list[tuple], cache: BehaviorCache) -> tuple[float, list, list]:
    """One timed pass over the cells; returns (wall seconds, per-cell
    ``cached`` flags, per-cell key sets).  The key sets are computed after
    the clock stops, so the identity check counts against neither sweep."""
    results = []
    start = time.perf_counter()
    for test, model_name in cells:
        results.append(enumerate_behaviors(test.program, get_model(model_name), cache=cache))
    seconds = time.perf_counter() - start
    return seconds, [result.cached for result in results], [_keys(r) for r in results]


def gate_cache(quick: bool) -> tuple[dict, list[str]]:
    """Cold then warm sweep of the litmus library × models through the
    persistent behavior cache, then novel-key probes.  The warm sweep
    uses a *new* :class:`BehaviorCache` on the same directory, so its
    in-process LRU starts empty and every hit is served from disk.

    The heap left by imports and earlier gates is frozen first: a full
    collection traversing it costs 20-30 ms, a third of the ~60 ms warm
    sweep, and would measure the harness rather than the cache."""
    models = ("sc", "tso", "weak") if quick else available_models()
    cells = [(test, name) for test in all_tests() for name in models]
    cache_dir = Path(tempfile.mkdtemp(prefix="bench-cache-"))
    gc.collect()
    gc.freeze()
    try:
        cold_cache = BehaviorCache(cache_dir)
        cold_seconds, _, cold_keys = _cache_sweep(cells, cold_cache)
        cold_cache.close()

        warm_cache = BehaviorCache(cache_dir)
        warm_seconds, warm_cached, warm_keys = _cache_sweep(cells, warm_cache)

        # Deterministic probe keys (hash of a counter): they cannot
        # collide with real cache keys except by blake2b accident.
        latencies = []
        false_hits = 0
        for index in range(NOVEL_PROBES):
            key = hashlib.blake2b(b"novel-probe-%d" % index, digest_size=16).digest()
            start = time.perf_counter()
            entry = warm_cache.lookup(key)
            latencies.append(time.perf_counter() - start)
            false_hits += entry is not None
        store_stats = warm_cache.stats()
        warm_cache.close()
    finally:
        gc.unfreeze()
        shutil.rmtree(cache_dir, ignore_errors=True)

    hit_rate = sum(warm_cached) / len(cells)
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    mismatches = [
        f"{test.name}/{model}"
        for (test, model), cold, warm in zip(cells, cold_keys, warm_keys)
        if cold != warm
    ]
    values = {
        "models": sorted(models),
        "cells": len(cells),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": speedup,
        "min_warm_speedup": MIN_WARM_SPEEDUP,
        "hit_rate": hit_rate,
        "min_hit_rate": MIN_HIT_RATE,
        "mismatches": mismatches,
        "novel_probes": NOVEL_PROBES,
        "novel_lookup_median_us": statistics.median(latencies) * 1e6,
        "novel_false_hits": false_hits,
        "store": store_stats,
    }
    failures = []
    if speedup < MIN_WARM_SPEEDUP:
        failures.append(
            f"warm sweep only {speedup:.2f}x faster than cold (floor {MIN_WARM_SPEEDUP}x)"
        )
    if hit_rate < MIN_HIT_RATE:
        failures.append(f"warm hit rate {hit_rate:.1%} < {MIN_HIT_RATE:.0%}")
    if mismatches:
        failures.append(
            f"cached results differ from fresh enumeration for {', '.join(mismatches)}"
        )
    if false_hits:
        failures.append(f"{false_hits} of {NOVEL_PROBES} novel keys answered as hits")
    return values, failures


# -- fuzzcov -----------------------------------------------------------------

#: The oracle subset the gate fuzzes with: the cheap single-model
#: axiomatic comparisons (sc, tso, pso, weak) plus the inclusion chain —
#: enough model diversity for a meaningful grid without the heavyweight
#: solver oracle dominating the wall clock.
FUZZ_ORACLES = (
    "axiomatic-vs-sc",
    "axiomatic-vs-tso",
    "axiomatic-vs-pso",
    "inclusion-chain",
    "axiomatic-vs-dataflow",
)
#: Program budget of each of the three campaigns (full run / --quick).
FUZZ_BUDGET = 48
FUZZ_QUICK_BUDGET = 24
#: Campaign seed — fixed so the gate is reproducible everywhere.
FUZZ_SEED = 2006
#: Guided batch size (small, so feedback kicks in early even in --quick).
FUZZ_BATCH_SIZE = 6
#: Seconds between polls of the kill-resume subprocess's campaign state.
KILL_POLL = 0.02


def _campaign_fingerprint(campaign_dir: Path) -> tuple:
    """(grid json, corpus identity, budget spent, next index) — what the
    resume check compares."""
    state = load_campaign(campaign_dir)
    corpus = [(r.index, r.digest, r.program, r.new_cells) for r in state.corpus]
    return state.grid.to_json(), corpus, state.budget_spent, state.next_index


def _killed_then_resumed(campaign_dir: Path, budget: int) -> tuple[tuple, bool, int]:
    """Run a campaign in a subprocess, SIGKILL it mid-flight (once a
    batch is committed and before the budget is spent), resume it
    in-process to the same total budget; returns (fingerprint, whether
    the kill landed mid-flight, budget spent at the kill)."""
    code = (
        "from repro.testing.coverage import run_guided_campaign\n"
        f"run_guided_campaign({str(campaign_dir)!r}, seed={FUZZ_SEED}, budget={budget}, "
        f"batch_size={FUZZ_BATCH_SIZE}, oracle_names={FUZZ_ORACLES!r})\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    process = subprocess.Popen([sys.executable, "-c", code], env=env)
    # Kill once one batch is committed and the budget is not yet spent,
    # however fast the campaign runs.
    while process.poll() is None:
        state = load_campaign(campaign_dir)
        if state is not None and FUZZ_BATCH_SIZE <= state.budget_spent < budget:
            process.send_signal(signal.SIGKILL)
            break
        time.sleep(KILL_POLL)
    process.wait()

    state = load_campaign(campaign_dir)
    spent = 0 if state is None else state.budget_spent
    killed = process.returncode == -signal.SIGKILL and spent < budget
    if budget > spent:
        run_guided_campaign(
            campaign_dir,
            seed=FUZZ_SEED,
            budget=budget - spent,
            batch_size=FUZZ_BATCH_SIZE,
            oracle_names=FUZZ_ORACLES,
            resume=spent > 0,
        )
    return _campaign_fingerprint(campaign_dir), killed, spent


def gate_fuzzcov(quick: bool) -> tuple[dict, list[str]]:
    """Guided vs blind coverage at equal budget and oracle set, then the
    kill-resume check: it exercises the WAL commit path under a real
    kill, not a simulated one."""
    budget = FUZZ_QUICK_BUDGET if quick else FUZZ_BUDGET
    workdir = Path(tempfile.mkdtemp(prefix="bench-fuzzcov-"))
    try:
        start = time.perf_counter()
        blind = blind_grid(FUZZ_SEED, budget, oracle_names=FUZZ_ORACLES)
        blind_seconds = time.perf_counter() - start

        start = time.perf_counter()
        run_guided_campaign(
            workdir / "guided",
            seed=FUZZ_SEED,
            budget=budget,
            batch_size=FUZZ_BATCH_SIZE,
            oracle_names=FUZZ_ORACLES,
        )
        guided_seconds = time.perf_counter() - start
        guided = load_campaign(workdir / "guided")

        uninterrupted = _campaign_fingerprint(workdir / "guided")
        resumed, killed, spent_at_kill = _killed_then_resumed(workdir / "killed", budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    blind_cells = blind.project()
    guided_cells = guided.grid.project()
    values = {
        "seed": FUZZ_SEED,
        "budget": budget,
        "batch_size": FUZZ_BATCH_SIZE,
        "oracles": list(FUZZ_ORACLES),
        "blind_seconds": blind_seconds,
        "guided_seconds": guided_seconds,
        "blind_cells_3d": len(blind_cells),
        "guided_cells_3d": len(guided_cells),
        "guided_cells_4d": len(guided.grid),
        "guided_only_cells": sorted("|".join(cell) for cell in guided_cells - blind_cells),
        "blind_only_cells": sorted("|".join(cell) for cell in blind_cells - guided_cells),
        "corpus_entries": len(guided.corpus),
        "subprocess_killed_midflight": killed,
        "budget_spent_at_kill": spent_at_kill,
        "resume_grid_identical": resumed == uninterrupted,
    }
    failures = []
    if len(guided_cells) <= len(blind_cells):
        failures.append(
            f"guided generation covered {len(guided_cells)} 3-dim cells, blind "
            f"covered {len(blind_cells)} — guidance must win strictly"
        )
    if not killed:
        failures.append(
            f"the kill-resume subprocess was not killed mid-flight (budget spent "
            f"{spent_at_kill} of {budget}), so the resume check compared two "
            f"uninterrupted runs"
        )
    if resumed != uninterrupted:
        failures.append(
            "killed-then-resumed campaign does not reproduce the uninterrupted "
            "run's grid/corpus"
        )
    return values, failures


# -- the harness -------------------------------------------------------------

GATES = (
    ("hot-path", gate_hot_path),
    ("solver", gate_solver),
    ("fencesynth", gate_fencesynth),
    ("cache", gate_cache),
    ("fuzzcov", gate_fuzzcov),
)


def _summary(values: dict) -> str:
    scalars = (
        f"{key}={value:.3g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in values.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    )
    return " ".join(scalars)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller model subsets and budgets (CI smoke); every floor still applies",
    )
    parser.add_argument(
        "--out",
        default="BENCH_gates.json",
        help="path for the BENCH json (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    report: dict = {
        "benchmark": "gates",
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "passed": True,
        "gates": {},
    }
    for name, gate in GATES:
        start = time.perf_counter()
        try:
            values, failures = gate(args.quick)
        except Exception as exc:
            traceback.print_exc()
            values, failures = {}, [f"raised {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
        passed = not failures
        report["passed"] &= passed
        report["gates"][name] = {
            "passed": passed,
            "failures": failures,
            "seconds": seconds,
            **values,
        }
        print(f"BENCH {name}: {'PASS' if passed else 'FAIL'} in {seconds:.1f}s  {_summary(values)}")
        for failure in failures:
            print(f"FAIL: {name}: {failure}", file=sys.stderr)

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"BENCH json written to {args.out}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
