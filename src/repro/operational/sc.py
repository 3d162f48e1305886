"""Operational Sequential Consistency — the classic interleaving machine.

This is the paper's "operational view" of SC (Section 1): at each step
the next instruction of one running thread executes atomically against a
single monolithic memory.  The interleaving search explores the
scheduling choices with state memoization, producing the complete set of
final-register outcomes.

It serves as the *reference baseline*: the axiomatic enumerator under the
SC reordering table must produce exactly the same outcome set.

**Local-step reduction.**  Interleavings that differ only in where a
thread's private steps fall have the same outcomes, so a state in which
some thread's next step is a ``Compute``, a fence or a forward
``Branch`` (one whose successor pc is greater than its own) takes that
step alone — the lowest such thread, chosen by :func:`_local_step` —
instead of expanding every thread.  Such a step reads and writes only
its own thread's registers and pc: it commutes with every other step,
and no other step can disable it, so it is a singleton persistent set
and every terminal state stays reachable.  Each one strictly advances a
pc, so every cycle of the reduced graph passes through a fully expanded
state.  The outcome set is unchanged; ``states_explored`` and
``terminal_states`` count the reduced search (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EnumerationError
from repro.isa.instructions import Branch, Compute, Fence, Load, Rmw, Store
from repro.isa.program import Program
from repro.operational.state import (
    ArchThreadState,
    final_registers,
    resolve_address,
    rmw_apply,
    step_local,
)

#: Memory snapshots are stored as sorted (location, value) tuples so the
#: full machine state is hashable for memoization.
Memory = tuple[tuple[str, object], ...]


def _initial_memory(program: Program) -> Memory:
    return tuple(sorted((loc, program.initial_value(loc)) for loc in program.locations()))


def _read(memory: Memory, address: str):
    for location, value in memory:
        if location == address:
            return value
    raise EnumerationError(f"operational machine read from unknown location {address!r}")


def _write(memory: Memory, address: str, value) -> Memory:
    return tuple(
        (location, value if location == address else old) for location, old in memory
    )


@dataclass
class SCResult:
    """Outcome set plus exploration statistics."""

    outcomes: frozenset
    states_explored: int = 0
    terminal_states: int = 0


#: A machine state: per-thread architectural state plus memory.
State = tuple[tuple[ArchThreadState, ...], Memory]


def _step(program: Program, state: State, tid: int) -> State:
    """The successor of ``state`` when thread ``tid`` (not halted)
    executes its next instruction."""
    threads, memory = state
    thread_state = threads[tid]
    thread = program.threads[tid]
    instruction = thread_state.current(thread)
    successor_memory = memory

    local = step_local(thread_state, thread, instruction)
    if local is not None:
        successor_state = local
    elif isinstance(instruction, Fence):
        successor_state = thread_state.advance(thread_state.pc + 1)
    elif isinstance(instruction, Load):
        address = resolve_address(thread_state, instruction.addr)
        value = _read(memory, address)
        successor_state = thread_state.write(instruction.dst, value).advance(
            thread_state.pc + 1
        )
    elif isinstance(instruction, Store):
        address = resolve_address(thread_state, instruction.addr)
        value = thread_state.operand(instruction.value)
        successor_memory = _write(memory, address, value)
        successor_state = thread_state.advance(thread_state.pc + 1)
    elif isinstance(instruction, Rmw):
        address = resolve_address(thread_state, instruction.addr)
        old = _read(memory, address)
        successor_state, stored = rmw_apply(thread_state, instruction, old)
        if stored is not None:
            successor_memory = _write(memory, address, stored)
    else:  # pragma: no cover - exhaustive over the ISA
        raise EnumerationError(f"SC machine cannot execute {instruction}")

    return threads[:tid] + (successor_state,) + threads[tid + 1 :], successor_memory


def _local_step(program: Program, state: State) -> State | None:
    """The successor by the lowest-tid thread-private step of ``state``
    (a ``Compute``, a fence or a forward ``Branch``), or None when no
    thread's next step is one."""
    threads, _memory = state
    for tid, thread_state in enumerate(threads):
        thread = program.threads[tid]
        if thread_state.done(thread):
            continue
        if isinstance(thread_state.current(thread), (Compute, Branch, Fence)):
            successor = _step(program, state, tid)
            if successor[0][tid].pc > thread_state.pc:
                return successor
    return None


def run_sc(program: Program, max_states: int = 2_000_000) -> SCResult:
    """All final-register outcomes of ``program`` under interleaved SC."""
    initial = (
        tuple(ArchThreadState() for _ in program.threads),
        _initial_memory(program),
    )
    stack = [initial]
    seen = {initial}
    outcomes = set()
    terminal = 0

    while stack:
        state = stack.pop()
        if len(seen) > max_states:
            raise EnumerationError(f"SC interleaving exceeded {max_states} states")
        local = _local_step(program, state)
        if local is not None:
            successors = (local,)
        else:
            threads = state[0]
            successors = tuple(
                _step(program, state, tid)
                for tid, thread_state in enumerate(threads)
                if not thread_state.done(program.threads[tid])
            )
            if not successors:
                terminal += 1
                outcomes.add(final_registers(program, threads))
        for successor in successors:
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)

    return SCResult(frozenset(outcomes), states_explored=len(seen), terminal_states=terminal)
