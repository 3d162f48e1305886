"""Static delay-set analysis (Shasha & Snir, cited in paper §7).

    "Shasha and Snir take a program and discover which local orderings
    are involved in potential cycles and are therefore actually
    necessary to preserve SC behavior; the remaining edges can be
    dropped, permitting the use of a more weakly-ordered memory system."

This module implements that analysis on straight-line programs: build
the mixed graph of program-order edges (directed, within threads) and
conflict edges (both directions, between accesses of different threads
to the same location where at least one writes), enumerate the *minimal
critical cycles* (simple cycles, no immediate conflict backtracking, at
most two events per thread and per location), and report the **delay
set** — the program-order pairs appearing in some critical cycle.
Enforcing exactly those pairs (e.g. with fences) preserves SC on any
store-atomic substrate; the TAB-DELAYS experiment verifies that with the
enumerator, and cross-checks the delay pairs against the semantic
minimal-fence synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProgramError
from repro.isa.instructions import Fence, OpClass
from repro.isa.program import Program


@dataclass(frozen=True)
class Access:
    """One static memory access."""

    thread: str
    index: int  #: static instruction index
    kind: str  #: "R" or "W"
    location: str

    def __str__(self) -> str:
        return f"{self.thread}[{self.index}]:{self.kind}{self.location}"


@dataclass(frozen=True, order=True)
class DelayPair:
    """A program-order pair that must stay ordered (a Shasha–Snir delay)."""

    thread: str
    first_index: int
    second_index: int

    def __str__(self) -> str:
        return f"{self.thread}[{self.first_index} -> {self.second_index}]"


@dataclass
class DelayReport:
    """The analysis result."""

    program_name: str
    accesses: tuple[Access, ...]
    critical_cycles: list[tuple[Access, ...]]
    delays: tuple[DelayPair, ...]

    def summary(self) -> str:
        lines = [
            f"{self.program_name}: {len(self.critical_cycles)} critical "
            f"cycle(s); delay set = "
            + (", ".join(str(d) for d in self.delays) or "(empty)")
        ]
        for cycle in self.critical_cycles[:6]:
            lines.append("  cycle: " + " -> ".join(str(a) for a in cycle))
        if len(self.critical_cycles) > 6:
            lines.append(f"  ... and {len(self.critical_cycles) - 6} more")
        return "\n".join(lines)


def _collect_accesses(program: Program) -> list[Access]:
    accesses = []
    for thread in program.threads:
        for index, instruction in enumerate(thread.code):
            if isinstance(instruction, Fence):
                continue
            if instruction.op_class.is_memory():
                addr = instruction.addr_operand()
                from repro.isa.operands import Const

                if not isinstance(addr, Const) or not isinstance(addr.value, str):
                    raise ProgramError(
                        "delay-set analysis requires static addresses"
                    )
                if instruction.op_class is OpClass.RMW:
                    kind = "W"  # conservatively a write (conflicts both ways)
                elif instruction.op_class.writes_memory():
                    kind = "W"
                else:
                    kind = "R"
                accesses.append(Access(thread.name, index, kind, addr.value))
            elif instruction.op_class is OpClass.BRANCH:
                raise ProgramError("delay-set analysis requires straight-line code")
    return accesses


def _conflicting(a: Access, b: Access) -> bool:
    return (
        a.thread != b.thread
        and a.location == b.location
        and ("W" in (a.kind, b.kind))
    )


def find_critical_cycles(program: Program) -> list[tuple[Access, ...]]:
    """All minimal critical cycles: simple cycles over po + conflict edges
    with ≤2 events per thread and ≤3 per location, never immediately
    backtracking a conflict edge — the static layer's search
    (:func:`repro.analysis.static.conflict.critical_cycle_search`),
    uncapped, over exact addresses."""
    from repro.analysis.static.conflict import critical_cycle_search

    cycles, _truncated = critical_cycle_search(
        _collect_accesses(program), _conflicting, max_cycles=None
    )
    return list(cycles)


def delay_set(program: Program) -> DelayReport:
    """The delay pairs of a straight-line program.  Pairs already ordered
    by an intervening full fence are dropped (already enforced)."""
    cycles = find_critical_cycles(program)
    delays: set[DelayPair] = set()
    for cycle in cycles:
        extended = cycle + (cycle[0],)
        for first, second in zip(extended, extended[1:]):
            if first.thread == second.thread and first.index < second.index:
                if _already_fenced(program, first, second):
                    continue
                delays.add(DelayPair(first.thread, first.index, second.index))
    return DelayReport(
        program_name=program.name,
        accesses=tuple(_collect_accesses(program)),
        critical_cycles=cycles,
        delays=tuple(sorted(delays)),
    )


def _already_fenced(program: Program, first: Access, second: Access) -> bool:
    from repro.isa.instructions import FenceKind

    thread = program.threads[program.thread_index(first.thread)]
    return any(
        isinstance(instruction, Fence) and instruction.kind is FenceKind.FULL
        for instruction in thread.code[first.index + 1 : second.index]
    )


def fence_delays(program: Program, report: DelayReport | None = None) -> Program:
    """A copy of ``program`` with a full fence inside every delay pair —
    the Shasha–Snir prescription for running SC code on a weak machine."""
    from repro.analysis.fencesynth import FenceSite, insert_fences

    report = report or delay_set(program)
    sites = {
        FenceSite(delay.thread, delay.first_index + 1) for delay in report.delays
    }
    return insert_fences(program, tuple(sorted(sites)))
