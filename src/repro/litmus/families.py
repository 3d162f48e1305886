"""Parametric litmus-test families.

Classic tests generalize to whole families indexed by a size parameter;
these scale the discriminating patterns to arbitrarily many threads,
both for correctness testing (the expectations stay uniform in ``n``)
and as realistic enumeration workloads for the scaling benchmarks.
"""

from __future__ import annotations

from repro.errors import ProgramError
from repro.isa.dsl import ProgramBuilder
from repro.litmus.conditions import parse_condition
from repro.litmus.test import LitmusTest


def sb_ring(n: int, fenced: bool = False) -> LitmusTest:
    """The n-thread store-buffering ring: thread i stores to ``x_i`` then
    loads ``x_{i+1 mod n}``.  All-zero loads require every store to pass
    its own thread's load — forbidden under SC, observable once
    store→load reorders (TSO and weaker), forbidden again with fences.
    ``sb_ring(2)`` is the classic SB.
    """
    if n < 2:
        raise ProgramError("an SB ring needs at least two threads")
    builder = ProgramBuilder(f"sb-ring-{n}{'+f' if fenced else ''}")
    for index in range(n):
        thread = builder.thread(f"P{index}")
        thread.store(f"x{index}", 1)
        if fenced:
            thread.fence()
        thread.load(f"r{index + 1}", f"x{(index + 1) % n}")
    atoms = " /\\ ".join(f"P{index}:r{index + 1}=0" for index in range(n))
    return LitmusTest(
        name=f"sb-ring-{n}{'+f' if fenced else ''}",
        program=builder.build(),
        condition=parse_condition(f"exists ({atoms})"),
        expected={
            "sc": False,
            "tso": not fenced,
            "pso": not fenced,
            "weak": not fenced,
        },
        description=f"{n}-thread store-buffering ring"
        + (" with fences" if fenced else ""),
    )


def mp_chain(n: int, fenced: bool = False) -> LitmusTest:
    """Message passing through ``n`` forwarding hops: the writer
    publishes data then a flag; each hop copies flag i to flag i+1; the
    reader checks the last flag and reads the data.  The stale read needs
    a store→store or load→load (or load→store at a hop) reordering
    somewhere along the chain.
    """
    if n < 1:
        raise ProgramError("an MP chain needs at least one hop")
    builder = ProgramBuilder(f"mp-chain-{n}{'+f' if fenced else ''}")
    writer = builder.thread("W")
    writer.store("data", 1)
    if fenced:
        writer.fence()
    writer.store("f1", 1)
    for hop in range(1, n):
        thread = builder.thread(f"H{hop}")
        thread.load(f"r{hop}", f"f{hop}")
        if fenced:
            thread.fence()
        thread.store(f"f{hop + 1}", f"r{hop}")
    reader = builder.thread("R")
    reader.load("r97", f"f{n}")
    if fenced:
        reader.fence()
    reader.load("r98", "data")
    return LitmusTest(
        name=f"mp-chain-{n}{'+f' if fenced else ''}",
        program=builder.build(),
        condition=parse_condition("exists (R:r97=1 /\\ R:r98=0)"),
        expected={
            "sc": False,
            "tso": False,
            "pso": not fenced,
            "weak": not fenced,
        },
        description=f"message passing through {n} hop(s)"
        + (" with fences" if fenced else ""),
    )


def independent_writers(readers: int) -> LitmusTest:
    """IRIW generalized to ``readers`` reader threads over two writers;
    any two readers disagreeing on the store order witnesses the
    violation, so the condition uses the first two readers."""
    if readers < 2:
        raise ProgramError("need at least two readers")
    builder = ProgramBuilder(f"iriw-{readers}r")
    builder.thread("W0").store("x", 1)
    builder.thread("W1").store("y", 1)
    for index in range(readers):
        thread = builder.thread(f"R{index}")
        first, second = ("x", "y") if index % 2 == 0 else ("y", "x")
        thread.load(f"r{2 * index + 1}", first)
        thread.load(f"r{2 * index + 2}", second)
    return LitmusTest(
        name=f"iriw-{readers}r",
        program=builder.build(),
        condition=parse_condition("exists (R0:r1=1 /\\ R0:r2=0 /\\ R1:r3=1 /\\ R1:r4=0)"),
        expected={"sc": False, "tso": False, "pso": False, "weak": True},
        description=f"independent writers observed by {readers} readers",
    )

