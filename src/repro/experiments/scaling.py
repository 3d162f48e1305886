"""TAB-SCALE — cost of the enumeration procedure.

The paper notes that Load Resolution "is the only place where our
enumeration procedure may duplicate effort" and relies on Load–Store
graph comparison to discard duplicates.  This experiment measures how
behavior counts and explored states grow with program size, and how much
the canonical-key deduplication saves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.enumerate import EnumerationLimits, enumerate_behaviors
from repro.isa.dsl import ProgramBuilder
from repro.isa.program import Program
from repro.models.registry import get_model
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "TAB-SCALE"


@dataclass(frozen=True)
class ScalePoint:
    """One measurement in the scaling sweep."""

    label: str
    executions: int
    explored: int
    resolutions: int
    duplicates: int
    seconds: float


def chain_program(threads: int, writes_per_thread: int = 1) -> Program:
    """``threads`` writers each storing to a shared location, plus one
    reader loading it ``threads`` times — store-choice fan-out."""
    builder = ProgramBuilder(f"fanout-{threads}x{writes_per_thread}")
    for tid in range(threads):
        writer = builder.thread(f"W{tid}")
        for w in range(writes_per_thread):
            writer.store("x", tid * 100 + w + 1)
    reader = builder.thread("R")
    for i in range(threads):
        reader.load(f"r{i + 1}", "x")
    return builder.build()


def sb_chain(pairs: int) -> Program:
    """``pairs`` independent SB instances side by side — multiplicative
    outcome growth."""
    builder = ProgramBuilder(f"sb-chain-{pairs}")
    for index in range(pairs):
        p0 = builder.thread(f"A{index}")
        p0.store(f"x{index}", 1)
        p0.load(f"r{2 * index + 1}", f"y{index}")
        p1 = builder.thread(f"B{index}")
        p1.store(f"y{index}", 1)
        p1.load(f"r{2 * index + 2}", f"x{index}")
    return builder.build()


def measure(program: Program, model_name: str = "weak") -> ScalePoint:
    started = time.perf_counter()
    result = enumerate_behaviors(
        program, get_model(model_name), EnumerationLimits(max_behaviors=5_000_000)
    )
    elapsed = time.perf_counter() - started
    return ScalePoint(
        label=f"{program.name}/{model_name}",
        executions=len(result.executions),
        explored=result.stats.explored,
        resolutions=result.stats.resolutions,
        duplicates=result.stats.duplicates,
        seconds=elapsed,
    )


def run(max_fanout: int = 4, max_pairs: int = 2) -> ExperimentResult:
    from repro.litmus.families import mp_chain, sb_ring

    result = ExperimentResult(EXPERIMENT_ID, "Enumeration cost scaling")
    points = []
    for threads in range(1, max_fanout + 1):
        points.append(measure(chain_program(threads)))
    for pairs in range(1, max_pairs + 1):
        points.append(measure(sb_chain(pairs)))
    for ring in (2, 3):
        points.append(measure(sb_ring(ring).program, "tso"))
    for hops in (1, 2):
        points.append(measure(mp_chain(hops).program, "weak"))

    growth_monotone = all(
        earlier.executions <= later.executions
        for earlier, later in zip(points[: max_fanout - 1], points[1:max_fanout])
    )
    result.claim("behavior counts grow with fan-out", True, growth_monotone)
    dedup_useful = any(point.duplicates > 0 for point in points)
    result.claim(
        "the Load–Store-graph style dedup discards duplicate work",
        True,
        dedup_useful,
    )

    lines = [
        f"{'program':<18} {'executions':>10} {'explored':>9} {'resolutions':>12} "
        f"{'duplicates':>10} {'seconds':>8}"
    ]
    for point in points:
        lines.append(
            f"{point.label:<18} {point.executions:>10} {point.explored:>9} "
            f"{point.resolutions:>12} {point.duplicates:>10} {point.seconds:>8.3f}"
        )
    result.details = "\n".join(lines)
    return result
