"""Operational TSO/PSO — per-thread store buffers over a shared memory.

The machine implements the hardware intuition behind Section 6:

* a Store enters its thread's store buffer,
* a buffered store *drains* to memory nondeterministically — in FIFO
  order for TSO, in any order that preserves per-address FIFO for PSO,
* a Load first searches its own buffer (newest matching entry — store-to-
  load forwarding, the paper's "Local Load operations are permitted to
  obtain values from the Store pipeline"), falling back to memory,
* full and store-ordering fences wait for an empty buffer,
* atomic RMWs drain the buffer and act on memory directly.

These machines are the reference baselines the axiomatic TSO/PSO models
are validated against.

**Local-step reduction.**  A state in which some thread's next step is
thread-private takes that step alone — the lowest such thread, chosen by
:func:`_local_step` — instead of expanding every drain and every thread.
Thread-private steps are a ``Compute``, a forward ``Branch`` (successor
pc greater than its own), an enabled fence (a non-draining kind, or any
kind over an empty own buffer) and a ``Store`` entering its own buffer
(unless it is a PSO release store waiting for a non-empty buffer).  Each
touches only its thread's registers, pc and buffer tail: it commutes
with every other thread's step and with the drains of its own buffer's
head, and nothing can disable it, so it is a singleton persistent set
and every terminal state stays reachable.  Loads are never taken alone,
forwarded ones included: whether a buffered entry is still there to
forward from depends on the drains.  Every local step strictly advances
a pc, so every cycle of the reduced graph passes through a fully
expanded state.  The outcome set is unchanged; ``states_explored`` and
``terminal_states`` count the reduced search (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EnumerationError
from repro.isa.instructions import Branch, Compute, Fence, FenceKind, Load, Rmw, Store
from repro.isa.program import Program
from repro.operational.sc import Memory, _initial_memory, _read, _write
from repro.operational.state import (
    ArchThreadState,
    final_registers,
    resolve_address,
    rmw_apply,
    step_local,
)

#: A store buffer: oldest-first tuple of (address, value) entries.
Buffer = tuple[tuple[str, object], ...]

#: Fence kinds that must wait until the issuing thread's buffer drains.
_DRAINING_FENCES = (FenceKind.FULL, FenceKind.STORE_LOAD, FenceKind.STORE_STORE)


def _forward(buffer: Buffer, address: str):
    """Newest buffered value for ``address``, or None if absent."""
    for entry_address, value in reversed(buffer):
        if entry_address == address:
            return (value,)
    return None


def _drain_choices(buffer: Buffer, fifo: bool) -> list[int]:
    """Indices of buffer entries that may drain next."""
    if not buffer:
        return []
    if fifo:
        return [0]
    choices = []
    seen_addresses: set[str] = set()
    for index, (address, _) in enumerate(buffer):
        if address not in seen_addresses:
            choices.append(index)
            seen_addresses.add(address)
    return choices


@dataclass
class StoreBufferResult:
    """Outcome set plus exploration statistics."""

    outcomes: frozenset
    states_explored: int = 0
    terminal_states: int = 0


#: A machine state: per-thread architectural state, memory, buffers.
State = tuple[tuple[ArchThreadState, ...], Memory, tuple[Buffer, ...]]


def _step(program: Program, fifo: bool, state: State, tid: int) -> State | None:
    """The successor of ``state`` when thread ``tid`` (not halted)
    executes its next instruction, or None while that instruction waits
    for the thread's buffer to drain."""
    threads, memory, buffers = state
    thread_state = threads[tid]
    thread = program.threads[tid]
    instruction = thread_state.current(thread)
    buffer = buffers[tid]
    successor_memory = memory
    successor_buffer = buffer

    local = step_local(thread_state, thread, instruction)
    if local is not None:
        successor_state = local
    elif isinstance(instruction, Fence):
        if instruction.kind in _DRAINING_FENCES and buffer:
            return None  # blocked until the buffer drains
        successor_state = thread_state.advance(thread_state.pc + 1)
    elif isinstance(instruction, Load):
        address = resolve_address(thread_state, instruction.addr)
        forwarded = _forward(buffer, address)
        value = forwarded[0] if forwarded is not None else _read(memory, address)
        successor_state = thread_state.write(instruction.dst, value).advance(
            thread_state.pc + 1
        )
    elif isinstance(instruction, Store):
        if instruction.release and buffer and not fifo:
            # A release store must not overtake earlier stores; with a
            # non-FIFO (PSO) buffer that means waiting for it to drain
            # first.  (FIFO buffers preserve the order anyway.)
            return None
        address = resolve_address(thread_state, instruction.addr)
        value = thread_state.operand(instruction.value)
        successor_buffer = buffer + ((address, value),)
        successor_state = thread_state.advance(thread_state.pc + 1)
    elif isinstance(instruction, Rmw):
        if buffer:
            return None  # atomics drain the buffer first
        address = resolve_address(thread_state, instruction.addr)
        old = _read(memory, address)
        successor_state, stored = rmw_apply(thread_state, instruction, old)
        if stored is not None:
            successor_memory = _write(memory, address, stored)
    else:  # pragma: no cover - exhaustive over the ISA
        raise EnumerationError(f"store-buffer machine cannot execute {instruction}")

    return (
        threads[:tid] + (successor_state,) + threads[tid + 1 :],
        successor_memory,
        buffers[:tid] + (successor_buffer,) + buffers[tid + 1 :],
    )


def _local_step(program: Program, fifo: bool, state: State) -> State | None:
    """The successor by the lowest-tid thread-private step of ``state``
    (a ``Compute``, a forward ``Branch``, an enabled fence or a buffered
    ``Store`` issue), or None when no thread's next step is one."""
    threads = state[0]
    for tid, thread_state in enumerate(threads):
        thread = program.threads[tid]
        if thread_state.done(thread):
            continue
        if isinstance(thread_state.current(thread), (Compute, Branch, Fence, Store)):
            successor = _step(program, fifo, state, tid)
            if successor is not None and successor[0][tid].pc > thread_state.pc:
                return successor
    return None


def _drains(fifo: bool, state: State) -> list[State]:
    """The successors of ``state`` by one buffered store draining."""
    threads, memory, buffers = state
    successors = []
    for tid, buffer in enumerate(buffers):
        for index in _drain_choices(buffer, fifo):
            address, value = buffer[index]
            drained = buffer[:index] + buffer[index + 1 :]
            successors.append(
                (
                    threads,
                    _write(memory, address, value),
                    buffers[:tid] + (drained,) + buffers[tid + 1 :],
                )
            )
    return successors


def run_store_buffer(
    program: Program, fifo: bool = True, max_states: int = 4_000_000
) -> StoreBufferResult:
    """All final-register outcomes under a store-buffer machine.

    ``fifo=True`` is TSO; ``fifo=False`` relaxes draining to per-address
    FIFO, which is PSO.
    """
    initial = (
        tuple(ArchThreadState() for _ in program.threads),
        _initial_memory(program),
        tuple(() for _ in program.threads),
    )
    stack = [initial]
    seen = {initial}
    outcomes = set()
    terminal = 0

    while stack:
        state = stack.pop()
        if len(seen) > max_states:
            raise EnumerationError(f"store-buffer search exceeded {max_states} states")
        local = _local_step(program, fifo, state)
        if local is not None:
            successors = [local]
        else:
            threads, _memory, buffers = state
            successors = _drains(fifo, state)
            running = False
            for tid, thread_state in enumerate(threads):
                if thread_state.done(program.threads[tid]):
                    continue
                running = True
                successor = _step(program, fifo, state, tid)
                if successor is not None:
                    successors.append(successor)
            if not running and not any(buffers):
                terminal += 1
                outcomes.add(final_registers(program, threads))
            elif not successors:
                raise EnumerationError(
                    "store-buffer machine deadlocked (fence waiting on a buffer "
                    "that cannot drain?)"
                )
        for successor in successors:
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)

    return StoreBufferResult(
        frozenset(outcomes), states_explored=len(seen), terminal_states=terminal
    )


def run_tso(program: Program, max_states: int = 4_000_000) -> StoreBufferResult:
    """Operational TSO (FIFO store buffers with forwarding)."""
    return run_store_buffer(program, fifo=True, max_states=max_states)


def run_pso(program: Program, max_states: int = 4_000_000) -> StoreBufferResult:
    """Operational PSO (per-address-FIFO store buffers with forwarding)."""
    return run_store_buffer(program, fifo=False, max_states=max_states)
