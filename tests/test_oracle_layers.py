"""Differential tests of the critical-cycle search and the
≺-linearization machine against their straightforward implementations.

``reference_find_critical_cycles`` and ``reference_run_dataflow`` are
the two layers as they were before their static work was hoisted out of
the search loops (successor rows and pruning; static instruction rows),
kept verbatim apart from their names.  The fast cycle search must agree
with its reference exactly: the same cycle tuples in the same order at
every cap.  Below them, the regression test for the silent cycle cap: a
search cut short by ``max_cycles`` must never certify robustness.

The three operational machines take thread-private steps alone (the
local-step reduction), so they are checked against full-interleaving
references: ``reference_run_dataflow`` above, and
``reference_run_sc`` and ``reference_run_store_buffer``, the SC and
store-buffer machines as they were before the reduction, verbatim apart
from their names.  A reduced machine must give exactly the reference's
outcomes while exploring no more states and reaching no more terminal
states; at every ``max_states`` cap, a reduced machine that raises must
have a reference that raises too, and one that completes must give the
uncapped reference's outcomes.

Load Resolution gets the same treatment: ``reference_dedup_key`` and
``reference_resolve_load`` are the dedup key and the resolution step as
they were before node fragments were memoized for the digest and before
the second Store Atomicity close was skipped on an unchanged graph.
Every child the search derives must get the same edges, in the same
order, and the same ancestor bitsets from both, and the old and new
digests must map one-to-one.

Last, the three worklists that copied the enumerator's loop before the
well-sync check, value speculation and the solver's branchy replay ran
through its ``_search``: ``reference_check_well_synchronized``,
``reference_enumerate_value_speculation`` and
``reference_search_restricted``, verbatim apart from their names (the
last also keeps its own copy of the solver's work counting and budget
stops, and drops node-limit branches as truncated).  Races in order and
``resolutions_checked``, value-speculation keys and counters (all but
``branched``, which the old loop never counted), and the solver's
``SolveStats`` and keys must all be the same.

The solver's model loop is a depth-first walk over reads-from choices;
``reference_solve_behaviors`` is the blocking loop it replaced (each
model blocked, the search restarted from the root), verbatim apart from
its names, the dropped ``facts`` argument and its return value (the
sorted keys, completeness and ``SolveStats``), with its own copy of the
replay from the skeleton.  The walk
must find the same keys, completeness and model counts, with no more
resolutions.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass

import pytest

from repro.analysis.delays import _collect_accesses as delay_accesses
from repro.analysis.delays import find_critical_cycles as delay_cycles
from repro.analysis.solver import behaviors as solver_behaviors
from repro.analysis.solver.behaviors import solve_behaviors_with_stats
from repro.analysis.solver.encode import Encoding, encode_program
from repro.analysis.static import (
    analyze_program,
    certify_robustness,
    check_portability,
    compute_static_facts,
    conflict,
    repair_fences,
    speculation_safety,
)
from repro.analysis.static.conflict import (
    MAX_CYCLES,
    StaticAccess,
    collect_accesses,
    critical_cycle_search,
    find_critical_cycles,
)
from repro.analysis.wellsync import RaceReport, WellSyncReport, check_well_synchronized
from repro.core import enumerate as engine
from repro.core.atomicity import close_store_atomicity
from repro.core.candidates import candidate_stores
from repro.core.enumerate import (
    EnumerationLimits,
    EnumerationStats,
    ExhaustionReason,
    enumerate_behaviors,
)
from repro.core.execution import Execution
from repro.core.graph import EdgeKind
from repro.core.valuespec import (
    ValueSpecResult,
    ValueSpecStats,
    _resolve_speculatively,
    _value_spec_candidates,
    _value_spec_eligible,
    closure_satisfiable,
    enumerate_value_speculation,
)
from repro.errors import (
    AtomicityViolation,
    CycleError,
    EnumerationError,
    GraphError,
    ProgramError,
    ReproError,
)
from repro.experiments.fig89 import build_program as build_fig8
from repro.isa.dsl import ProgramBuilder
from repro.isa.instructions import (
    Compute,
    Fence,
    FenceKind,
    Instruction,
    Load,
    OpClass,
    Rmw,
    Store,
    alu_eval,
)
from repro.isa.operands import Const, Reg, Value
from repro.isa.program import Program
from repro.litmus.library import all_tests
from repro.models import MemoryModel, OrderRequirement, get_model
from repro.operational.dataflow import DataflowResult, run_dataflow
from repro.operational.sc import SCResult, run_sc
from repro.operational.state import (
    ArchThreadState,
    final_registers,
    resolve_address,
    rmw_apply,
    step_local,
)
from repro.operational.storebuffer import StoreBufferResult, run_store_buffer
from repro.testing.fuzzgen import MIXED, derive_seed, generate_program, profile_for_index
from repro.testing.oracles import FUZZ_LIMITS, OracleContext, OracleSkip, _check_static

# ---------------------------------------------------------------------------
# the critical-cycle search before successor rows and pruning, verbatim


def _conflicting(a: StaticAccess, b: StaticAccess) -> bool:
    return a.thread != b.thread and a.may_alias(b) and (a.writes() or b.writes())


def reference_find_critical_cycles(
    program: Program,
    accesses: tuple[StaticAccess, ...] | None = None,
    max_cycles: int = 10_000,
) -> tuple[tuple[StaticAccess, ...], ...]:
    """All minimal critical cycles of the conflict graph: simple cycles
    over program-order + conflict edges, at most two accesses per thread
    and three per location, never immediately backtracking a conflict
    edge.  Unlike :func:`repro.analysis.delays.find_critical_cycles`,
    this handles branches and dynamic addresses conservatively."""
    accesses = collect_accesses(program) if accesses is None else accesses
    cycles: list[tuple[StaticAccess, ...]] = []
    seen: set[frozenset[StaticAccess]] = set()
    order = {access: position for position, access in enumerate(accesses)}

    def successors(current: StaticAccess, came_by_conflict_from: StaticAccess | None):
        for candidate in accesses:
            if candidate is current:
                continue
            if candidate.thread == current.thread:
                if candidate.index > current.index:
                    yield candidate, "po"
            elif _conflicting(current, candidate):
                if came_by_conflict_from is not None and candidate is came_by_conflict_from:
                    continue  # no immediate backtracking
                yield candidate, "conflict"

    def extend(path: list[StaticAccess], kinds: list[str], start: StaticAccess) -> None:
        if len(cycles) >= max_cycles:
            return
        current = path[-1]
        came_from = path[-2] if kinds and kinds[-1] == "conflict" else None
        for nxt, kind in successors(current, came_from):
            if nxt is start:
                if len(path) >= 3 and "po" in kinds + [kind] and kind == "conflict":
                    candidate = tuple(path)
                    if _is_minimal(candidate) and frozenset(candidate) not in seen:
                        seen.add(frozenset(candidate))
                        cycles.append(candidate)
                continue
            if nxt in path:
                continue
            if order[nxt] < order[start]:
                continue  # canonical start: smallest node first
            extend(path + [nxt], kinds + [kind], start)

    for start in accesses:
        extend([start], [], start)
    return tuple(cycles)


def _is_minimal(cycle: tuple[StaticAccess, ...]) -> bool:
    """Shasha–Snir minimality: at most two accesses per thread, at most
    three per location (IRIW touches each location three times).  A
    dynamic address counts against every location, keyed by itself."""
    per_thread: dict[str, int] = {}
    per_location: dict[str, int] = {}
    for access in cycle:
        per_thread[access.thread] = per_thread.get(access.thread, 0) + 1
        key = access.location if access.location is not None else str(access)
        per_location[key] = per_location.get(key, 0) + 1
    if any(count > 2 for count in per_thread.values()):
        return False
    if any(count > 3 for count in per_location.values()):
        return False
    return True


# ---------------------------------------------------------------------------
# the ≺-linearization machine before static rows, verbatim


def _operands(instruction: Instruction):
    if isinstance(instruction, Compute):
        return instruction.args
    if isinstance(instruction, Load):
        return (instruction.addr,)
    if isinstance(instruction, Store):
        return (instruction.addr, instruction.value)
    if isinstance(instruction, Rmw):
        return (instruction.addr,) + instruction.args
    return ()


@dataclass(frozen=True)
class _ThreadState:
    """Immutable per-thread progress: per-instruction results.

    ``results[i]`` is None while instruction i has not executed, else a
    tuple ``(value,)`` (fences record ``(0,)``).
    """

    results: tuple[tuple[Value] | None, ...]

    def executed(self, index: int) -> bool:
        return self.results[index] is not None

    def with_result(self, index: int, value: Value) -> "_ThreadState":
        updated = list(self.results)
        updated[index] = (value,)
        return _ThreadState(tuple(updated))


def reference_run_dataflow(
    program: Program,
    model: MemoryModel | str = "weak",
    max_states: int = 4_000_000,
) -> DataflowResult:
    """All final-register outcomes of the ≺-linearization machine."""
    if isinstance(model, str):
        model = get_model(model)
    if model.store_load_bypass:
        raise ReproError(
            "the dataflow machine realizes store-atomic models; use the "
            "store-buffer machines for TSO/PSO"
        )
    if program.has_branches():
        raise ReproError("the dataflow machine requires branch-free programs")

    threads = program.threads
    # Precompute register producers: for thread t, instruction i, operand
    # position p -> producing instruction index (or None for constants /
    # unwritten registers).
    producers: list[list[tuple[int | None, ...]]] = []
    for thread in threads:
        last_writer: dict[str, int] = {}
        thread_producers = []
        for index, instruction in enumerate(thread.code):
            thread_producers.append(
                tuple(
                    last_writer.get(op.name) if isinstance(op, Reg) else None
                    for op in _operands(instruction)
                )
            )
            destination = instruction.dest()
            if destination is not None:
                last_writer[destination.name] = index
        producers.append(thread_producers)

    initial_memory = tuple(
        sorted((loc, program.initial_value(loc)) for loc in program.locations())
    )
    initial = (
        tuple(_ThreadState((None,) * len(thread.code)) for thread in threads),
        initial_memory,
    )

    def operand_value(state: _ThreadState, tid: int, index: int, position: int):
        operand = _operands(threads[tid].code[index])[position]
        if isinstance(operand, Const):
            return operand.value
        producer = producers[tid][index][position]
        if producer is None:
            return 0
        result = state.results[producer]
        return None if result is None else result[0]

    def address_of(state: _ThreadState, tid: int, index: int):
        instruction = threads[tid].code[index]
        if instruction.addr_operand() is None:
            return None
        return operand_value(state, tid, index, 0)

    def eligible(state: _ThreadState, tid: int, index: int) -> bool:
        instruction = threads[tid].code[index]
        if state.executed(index):
            return False
        for position in range(len(_operands(instruction))):
            if operand_value(state, tid, index, position) is None:
                return False
        my_address = address_of(state, tid, index)
        for earlier in range(index):
            requirement = model.requirement(threads[tid].code[earlier], instruction)
            if requirement is OrderRequirement.NONE:
                continue
            if requirement is OrderRequirement.ALWAYS:
                if not state.executed(earlier):
                    return False
                continue
            # SAME_ADDRESS: must know the earlier address to decide.
            if state.executed(earlier):
                continue
            earlier_address = address_of(state, tid, earlier)
            if earlier_address is None or earlier_address == my_address:
                return False
        return True

    def read(memory, address):
        for location, value in memory:
            if location == address:
                return value
        raise EnumerationError(f"dataflow machine read unknown location {address!r}")

    def write(memory, address, value):
        return tuple(
            (location, value if location == address else old)
            for location, old in memory
        )

    stack = [initial]
    seen = {initial}
    outcomes = set()
    terminal = 0

    while stack:
        states, memory = stack.pop()
        if len(seen) > max_states:
            raise EnumerationError(f"dataflow machine exceeded {max_states} states")
        progressed = False
        for tid, state in enumerate(states):
            for index, instruction in enumerate(threads[tid].code):
                if not eligible(state, tid, index):
                    continue
                progressed = True
                successor_memory = memory
                if isinstance(instruction, Fence):
                    value: Value = 0
                elif isinstance(instruction, Compute):
                    args = tuple(
                        operand_value(state, tid, index, position)
                        for position in range(len(instruction.args))
                    )
                    value = alu_eval(instruction.op, args)
                elif isinstance(instruction, Load):
                    value = read(memory, address_of(state, tid, index))
                elif isinstance(instruction, Store):
                    value = operand_value(state, tid, index, 1)
                    successor_memory = write(memory, address_of(state, tid, index), value)
                elif isinstance(instruction, Rmw):
                    address = address_of(state, tid, index)
                    old = read(memory, address)
                    args = tuple(
                        operand_value(state, tid, index, position)
                        for position in range(1, 1 + len(instruction.args))
                    )
                    stored = instruction.stored_value(old, args)
                    if stored is not None:
                        successor_memory = write(memory, address, stored)
                    value = old
                else:  # pragma: no cover - exhaustive
                    raise EnumerationError(f"cannot execute {instruction}")
                next_states = tuple(
                    state.with_result(index, value) if t == tid else other
                    for t, other in enumerate(states)
                )
                next_state = (next_states, successor_memory)
                if next_state not in seen:
                    seen.add(next_state)
                    stack.append(next_state)
        if not progressed:
            terminal += 1
            outcomes.add(_final_registers(program, states, producers))

    return DataflowResult(frozenset(outcomes), len(seen), terminal)


def _final_registers(program: Program, states, producers) -> frozenset:
    items = []
    for tid, thread in enumerate(program.threads):
        last_writer: dict[str, int] = {}
        for index, instruction in enumerate(thread.code):
            destination = instruction.dest()
            if destination is not None:
                last_writer[destination.name] = index
        for register, index in last_writer.items():
            result = states[tid].results[index]
            if result is not None:
                items.append(((thread.name, register), result[0]))
    return frozenset(items)


# ---------------------------------------------------------------------------
# the SC and store-buffer machines before the local-step reduction, verbatim

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


def reference_run_sc(program: Program, max_states: int = 2_000_000) -> SCResult:
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
        threads, memory = stack.pop()
        if len(seen) > max_states:
            raise EnumerationError(f"SC interleaving exceeded {max_states} states")
        progressed = False
        for tid, state in enumerate(threads):
            thread = program.threads[tid]
            if state.done(thread):
                continue
            progressed = True
            instruction = state.current(thread)
            successor_memory = memory

            local = step_local(state, thread, instruction)
            if local is not None:
                successor_state = local
            elif isinstance(instruction, Fence):
                successor_state = state.advance(state.pc + 1)
            elif isinstance(instruction, Load):
                address = resolve_address(state, instruction.addr)
                value = _read(memory, address)
                successor_state = state.write(instruction.dst, value).advance(state.pc + 1)
            elif isinstance(instruction, Store):
                address = resolve_address(state, instruction.addr)
                value = state.operand(instruction.value)
                successor_memory = _write(memory, address, value)
                successor_state = state.advance(state.pc + 1)
            elif isinstance(instruction, Rmw):
                address = resolve_address(state, instruction.addr)
                old = _read(memory, address)
                successor_state, stored = rmw_apply(state, instruction, old)
                if stored is not None:
                    successor_memory = _write(memory, address, stored)
            else:  # pragma: no cover - exhaustive over the ISA
                raise EnumerationError(f"SC machine cannot execute {instruction}")

            next_threads = tuple(
                successor_state if index == tid else other
                for index, other in enumerate(threads)
            )
            next_state = (next_threads, successor_memory)
            if next_state not in seen:
                seen.add(next_state)
                stack.append(next_state)

        if not progressed:
            terminal += 1
            outcomes.add(final_registers(program, threads))

    return SCResult(frozenset(outcomes), states_explored=len(seen), terminal_states=terminal)


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


def reference_run_store_buffer(
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

    def push(state) -> None:
        if state not in seen:
            seen.add(state)
            stack.append(state)

    while stack:
        threads, memory, buffers = stack.pop()
        if len(seen) > max_states:
            raise EnumerationError(f"store-buffer search exceeded {max_states} states")
        progressed = False

        # Drain transitions.
        for tid, buffer in enumerate(buffers):
            for index in _drain_choices(buffer, fifo):
                progressed = True
                address, value = buffer[index]
                next_buffers = tuple(
                    buffer[:index] + buffer[index + 1 :] if b_tid == tid else other
                    for b_tid, other in enumerate(buffers)
                )
                push((threads, _write(memory, address, value), next_buffers))

        # Instruction transitions.
        for tid, state in enumerate(threads):
            thread = program.threads[tid]
            if state.done(thread):
                continue
            instruction = state.current(thread)
            buffer = buffers[tid]
            successor_memory = memory
            successor_buffer = buffer

            local = step_local(state, thread, instruction)
            if local is not None:
                successor_state = local
            elif isinstance(instruction, Fence):
                if instruction.kind in _DRAINING_FENCES and buffer:
                    continue  # blocked until the buffer drains
                successor_state = state.advance(state.pc + 1)
            elif isinstance(instruction, Load):
                address = resolve_address(state, instruction.addr)
                forwarded = _forward(buffer, address)
                value = forwarded[0] if forwarded is not None else _read(memory, address)
                successor_state = state.write(instruction.dst, value).advance(state.pc + 1)
            elif isinstance(instruction, Store):
                if instruction.release and buffer and not fifo:
                    # A release store must not overtake earlier stores;
                    # with a non-FIFO (PSO) buffer that means waiting for
                    # it to drain first.  (FIFO buffers preserve the order
                    # anyway.)
                    continue
                address = resolve_address(state, instruction.addr)
                value = state.operand(instruction.value)
                successor_buffer = buffer + ((address, value),)
                successor_state = state.advance(state.pc + 1)
            elif isinstance(instruction, Rmw):
                if buffer:
                    continue  # atomics drain the buffer first
                address = resolve_address(state, instruction.addr)
                old = _read(memory, address)
                successor_state, stored = rmw_apply(state, instruction, old)
                if stored is not None:
                    successor_memory = _write(memory, address, stored)
            else:  # pragma: no cover - exhaustive over the ISA
                raise EnumerationError(f"store-buffer machine cannot execute {instruction}")

            progressed = True
            next_threads = tuple(
                successor_state if index == tid else other
                for index, other in enumerate(threads)
            )
            next_buffers = tuple(
                successor_buffer if index == tid else other
                for index, other in enumerate(buffers)
            )
            push((next_threads, successor_memory, next_buffers))

        all_done = all(
            state.done(program.threads[tid]) for tid, state in enumerate(threads)
        )
        if all_done and not any(buffers):
            terminal += 1
            outcomes.add(final_registers(program, threads))
        elif not progressed:
            raise EnumerationError(
                "store-buffer machine deadlocked (fence waiting on a buffer "
                "that cannot drain?)"
            )

    return StoreBufferResult(
        frozenset(outcomes), states_explored=len(seen), terminal_states=terminal
    )


# ---------------------------------------------------------------------------
# Load Resolution before the fragment memo and the second-close skip, verbatim


def reference_dedup_key(execution: Execution) -> bytes:
    key = repr(execution.state_key()).encode()
    return hashlib.blake2b(key, digest_size=16).digest()


def reference_resolve_load(self: Execution, load_nid: int, store_nid: int) -> None:
    """Resolve ``source(L) = S`` (one branch of Load Resolution).

    Adds the observation edge (grey for a TSO-style local forward),
    computes the loaded value, handles the RMW store side, re-closes
    Store Atomicity, and re-stabilizes.  Raises CycleError /
    AtomicityViolation when the choice is inconsistent.
    """
    load = self.graph.node(load_nid)
    store = self.graph.node(store_nid)
    if load.executed:
        raise GraphError(f"load n{load_nid} is already resolved")
    if not store.is_visible_store:
        raise GraphError(f"node n{store_nid} is not a visible store")

    is_local_forward = (
        self.model.store_load_bypass
        and load.op_class is OpClass.LOAD
        and store.tid == load.tid
        and store.index < load.index
    )
    if is_local_forward:
        self.graph.add_edge(store_nid, load_nid, EdgeKind.BYPASS)
    else:
        self.graph.add_edge(store_nid, load_nid, EdgeKind.SOURCE)
        if self.model.store_load_bypass and load.op_class is OpClass.LOAD:
            # Observing a remote store: buffered local stores to the
            # same address must have drained first (paper §6: S ≺ L
            # when S ≠ source(L)).
            for local in self.local_earlier_stores(load, load.addr):
                if local.nid != store_nid:
                    self.graph.add_edge(local.nid, load_nid, EdgeKind.PROGRAM)

    load.source = store_nid
    load.value = store.stored
    load.executed = True

    if load.op_class is OpClass.RMW:
        instruction = load.instruction
        assert isinstance(instruction, Rmw)
        values = self._operand_values(load)
        assert values is not None, "RMW eligibility guarantees operand values"
        stored = instruction.stored_value(store.stored, values[1:])
        if stored is not None:
            load.stored = stored
            load.writes = True

    # Closed again in stabilize(); dropping this close changes the recorded dotted edges.
    close_store_atomicity(self.graph)
    self.stabilize()


# ---------------------------------------------------------------------------
# differential checks

FUZZ_SEED = 11
CYCLE_PROGRAMS = 120
DATAFLOW_PROGRAMS = 60
CAPS = (1, 7, 50, MAX_CYCLES)


def _fuzz(count: int):
    for index in range(count):
        yield generate_program(derive_seed(FUZZ_SEED, index), profile_for_index(MIXED, index))


def _cycle_programs():
    yield from (test.program for test in all_tests())
    yield from _fuzz(CYCLE_PROGRAMS)


def _access_lists(program: Program):
    yield collect_accesses(program, compute_static_facts(program))
    yield collect_accesses(program)


def test_cycle_search_matches_reference_at_every_cap():
    compared = 0
    for program in _cycle_programs():
        for accesses in _access_lists(program):
            for cap in CAPS:
                expected = reference_find_critical_cycles(program, accesses, cap)
                assert find_critical_cycles(program, accesses, cap) == expected, (
                    program.name, cap,
                )
                compared += bool(expected)
    assert compared > 200, "the comparison must cover programs with cycles"


def test_delay_cycles_match_reference_on_straight_line_programs():
    compared = 0
    for program in _cycle_programs():
        try:
            accesses = delay_accesses(program)
        except ProgramError:
            continue  # branches or register-computed addresses
        mirrored = tuple(
            StaticAccess(access.thread, access.index, access.kind, access.location)
            for access in accesses
        )
        expected = [
            tuple((access.thread, access.index) for access in cycle)
            for cycle in reference_find_critical_cycles(program, mirrored)
        ]
        actual = [
            tuple((access.thread, access.index) for access in cycle)
            for cycle in delay_cycles(program)
        ]
        assert actual == expected, program.name
        compared += bool(expected)
    assert compared > 30


def _machine_programs():
    yield from (test.program for test in all_tests())
    yield from _fuzz(DATAFLOW_PROGRAMS)


def _dataflow_cases():
    for program in _machine_programs():
        if not program.has_branches():
            yield program


#: ``(label, reduced machine, full-interleaving reference)`` per machine.
MACHINE_PAIRS = (
    ("sc", run_sc, reference_run_sc),
    ("tso", run_store_buffer, reference_run_store_buffer),
    (
        "pso",
        lambda program, **limits: run_store_buffer(program, fifo=False, **limits),
        lambda program, **limits: reference_run_store_buffer(program, fifo=False, **limits),
    ),
)


def _reduces(reduced, reference) -> bool:
    """The reduced result has the reference's outcomes, from no more
    states and no more terminal states."""
    return (
        reduced.outcomes == reference.outcomes
        and reduced.states_explored <= reference.states_explored
        and reduced.terminal_states <= reference.terminal_states
    )


def _capped(machine, program, max_states):
    """The machine's outcomes under a state cap, or its error text."""
    try:
        return machine(program, max_states=max_states).outcomes
    except EnumerationError as error:
        return str(error)


def _check_cap(reduced, reference, uncapped: frozenset, label) -> bool:
    """Whether a reduced machine ran out of states at this cap; asserts
    that its reference ran out too, or that it gave every outcome."""
    if isinstance(reduced, str):
        assert reduced == reference, label  # reduced raises => reference raises
        return True
    assert reduced == uncapped, label  # reduced completes => all outcomes
    return False


def test_sc_and_store_buffer_match_reference():
    runs = reduced_runs = 0
    for program in _machine_programs():
        for label, machine, reference_machine in MACHINE_PAIRS:
            reduced = machine(program)
            reference = reference_machine(program)
            assert _reduces(reduced, reference), (program.name, label)
            runs += 1
            reduced_runs += reduced.states_explored < reference.states_explored
    assert runs > 300
    assert reduced_runs > runs // 2, "the reduction must skip states on most programs"


@pytest.mark.parametrize("max_states", [1, 5, 40, 300])
def test_sc_and_store_buffer_state_limit_match_reference(max_states):
    raised = 0
    for program in list(_machine_programs())[:60]:
        for label, machine, reference_machine in MACHINE_PAIRS:
            raised += _check_cap(
                _capped(machine, program, max_states),
                _capped(reference_machine, program, max_states),
                reference_machine(program).outcomes,
                (program.name, label),
            )
    if max_states < 300:
        assert raised, "some cap must cut a reduced search short"


@pytest.mark.slow
def test_dataflow_matches_reference():
    runs = reduced_runs = 0
    for program in _dataflow_cases():
        for model_name in ("weak", "weak-corr", "sc", "weak-spec"):
            fast = run_dataflow(program, model_name)
            reference = reference_run_dataflow(program, model_name)
            assert _reduces(fast, reference), (program.name, model_name)
            runs += 1
            reduced_runs += fast.states_explored < reference.states_explored
    assert runs > 150
    assert reduced_runs > runs // 2, "the reduction must skip states on most programs"


@pytest.mark.parametrize("max_states", [1, 5, 40, 300])
def test_dataflow_state_limit_matches_reference(max_states):
    raised = 0
    for program in list(_dataflow_cases())[:60]:
        raised += _check_cap(
            _capped(lambda p, **limits: run_dataflow(p, "weak", **limits), program, max_states),
            _capped(
                lambda p, **limits: reference_run_dataflow(p, "weak", **limits),
                program,
                max_states,
            ),
            reference_run_dataflow(program, "weak").outcomes,
            program.name,
        )
    if max_states < 300:
        assert raised, "some cap must cut a reduced search short"


# ---------------------------------------------------------------------------
# the cycle cap is never silent


def _capped_program() -> Program:
    """Eight fenced threads whose accesses to x and y form more than
    10,000 minimal critical cycles, listed before an SB pair on a/b."""
    builder = ProgramBuilder("cap-8+sb")
    for index in range(8):
        thread = builder.thread(f"P{index}")
        thread.store("x", index + 1)
        thread.fence()
        thread.load("r1", "y")
        thread.store("y", index + 1)
        thread.fence()
        thread.load("r2", "x")
    first = builder.thread("Q0")
    first.store("a", 1)
    first.load("r1", "b")
    second = builder.thread("Q1")
    second.store("b", 1)
    second.load("r1", "a")
    return builder.build()


def _sb_pair() -> Program:
    builder = ProgramBuilder("sb-pair")
    first = builder.thread("Q0")
    first.store("a", 1)
    first.load("r1", "b")
    second = builder.thread("Q1")
    second.store("b", 1)
    second.load("r1", "a")
    return builder.build()


def test_cycle_search_reports_truncation():
    program = _capped_program()
    cycles, truncated = critical_cycle_search(collect_accesses(program), _conflicting)
    assert len(cycles) == MAX_CYCLES and truncated
    iriw = next(test.program for test in all_tests() if test.name == "IRIW")
    accesses = collect_accesses(iriw)
    everything, truncated = critical_cycle_search(accesses, _conflicting, None)
    assert everything and not truncated
    capped, truncated = critical_cycle_search(accesses, _conflicting, len(everything) + 1)
    assert capped == everything and not truncated
    first, truncated = critical_cycle_search(accesses, _conflicting, 1)
    assert first == everything[:1] and truncated


def test_truncated_report_certifies_nothing():
    program = _capped_program()
    assert certify_robustness(_sb_pair(), "tso").verdict == "not-robust"
    report = analyze_program(program, "tso", bypass_coherence=True)
    assert report.truncated and not report.delays
    assert "cycle search stopped at" in report.summary()
    for model_name in ("tso", "weak"):
        certificate = certify_robustness(program, model_name)
        assert not certificate.robust and certificate.truncated
        assert certificate.verdict == "possibly-not-robust"
        repair = repair_fences(program, model_name)
        assert not repair.already_robust and not repair.complete
        assert repair.fence_count is None
        assert "no robustness certified" in repair.summary()
    assert all(not step.portable for step in check_portability(program).steps)
    assert speculation_safety(program, "weak").truncated


def test_truncated_search_leaves_no_address_dependency_safe(monkeypatch):
    search = conflict.critical_cycle_search
    monkeypatch.setattr(
        conflict, "critical_cycle_search",
        lambda accesses, conflicting: search(accesses, conflicting, max_cycles=0),
    )
    report = speculation_safety(build_fig8(), "weak")
    assert report.truncated and not report.all_safe
    assert [(v.thread, v.index) for v in report.unsafe_loads()] == [("B", 4)]
    assert "stopped at its cap" in report.unsafe_loads()[0].reason


def test_static_oracle_skips_a_truncated_report():
    with pytest.raises(OracleSkip, match="stopped at its cap"):
        _check_static(OracleContext(_capped_program()))


# ---------------------------------------------------------------------------
# Load Resolution against its reference

RESOLUTION_FUZZ_SEED = 7
RESOLUTION_PROGRAMS = 60
RESOLUTION_MODELS = ("sc", "tso", "pso", "weak")


def _resolution_programs() -> list[Program]:
    programs = [test.program for test in all_tests()]
    programs += [
        generate_program(
            derive_seed(RESOLUTION_FUZZ_SEED, index), profile_for_index(MIXED, index)
        )
        for index in range(RESOLUTION_PROGRAMS)
    ]
    return programs


def _resolution_cases():
    for program in _resolution_programs():
        for model_name in RESOLUTION_MODELS:
            yield program.name, program, get_model(model_name)


def _resolved(behavior: Execution, resolve, load_nid: int, store_nid: int):
    """The child ``resolve`` derives, or the type of the error it raised."""
    child = behavior.copy()
    try:
        resolve(child, load_nid, store_nid)
    except (CycleError, AtomicityViolation, EnumerationError) as exc:
        return type(exc)
    return child


def _differential_walk(program: Program, model: MemoryModel, counts: dict) -> None:
    """The enumerator's search, every child resolved both ways: the
    children must be the same graph, and the digests must pair up."""
    initial = Execution.initial(program, model, FUZZ_LIMITS.max_nodes_per_thread)
    old_of: dict[bytes, bytes] = {}
    new_of: dict[bytes, bytes] = {}
    seen = {engine._dedup_key(initial)}
    worklist = [initial]
    explored = 0
    while worklist and explored < FUZZ_LIMITS.max_behaviors:
        behavior = worklist.pop()
        explored += 1
        if behavior.completed():
            continue
        for load in behavior.eligible_loads():
            for store in candidate_stores(behavior, load):
                new = _resolved(behavior, Execution.resolve_load, load.nid, store.nid)
                old = _resolved(behavior, reference_resolve_load, load.nid, store.nid)
                if isinstance(new, type) or isinstance(old, type):
                    assert new is old, (program.name, model.name, load.nid, store.nid)
                    continue
                assert list(new.graph.edges()) == list(old.graph.edges())
                assert new.graph._anc == old.graph._anc
                assert new.graph._desc == old.graph._desc
                new_key = engine._dedup_key(new)
                old_key = reference_dedup_key(old)
                assert new_of.setdefault(old_key, new_key) == new_key
                assert old_of.setdefault(new_key, old_key) == old_key
                counts["children"] += 1
                if new_key not in seen:
                    seen.add(new_key)
                    worklist.append(new)
    counts["states"] += len(seen)


@pytest.mark.slow
def test_load_resolution_matches_reference_child_by_child():
    counts = {"children": 0, "states": 0}
    for _, program, model in _resolution_cases():
        _differential_walk(program, model, counts)
    assert counts["children"] > 10_000
    assert counts["states"] > 5_000


def _outcome(result) -> tuple:
    return (
        result.complete,
        asdict(result.stats),
        [
            (
                execution.state_key(),
                execution.loadstore_key(),
                list(execution.graph.edges()),
                execution.graph._anc,
            )
            for execution in result.executions
        ],
    )


@pytest.mark.slow
def test_enumeration_matches_reference_load_resolution(monkeypatch):
    """Whole searches agree too: stats, executions, keys and edges."""
    cases = list(_resolution_cases())
    fast = [enumerate_behaviors(p, m, FUZZ_LIMITS) for _, p, m in cases]
    monkeypatch.setattr(Execution, "resolve_load", reference_resolve_load)
    monkeypatch.setattr(engine, "_dedup_key", reference_dedup_key)
    for (name, program, model), result in zip(cases, fast):
        reference = enumerate_behaviors(program, model, FUZZ_LIMITS)
        assert _outcome(result) == _outcome(reference), (name, model.name)


# ---------------------------------------------------------------------------
# the three hand-copied Load-Resolution worklists, verbatim


def reference_check_well_synchronized(
    program: Program,
    model: MemoryModel | str,
    sync_locations: frozenset[str] | set[str] = frozenset(),
    limits: EnumerationLimits | None = None,
) -> WellSyncReport:
    if isinstance(model, str):
        model = get_model(model)
    limits = limits or EnumerationLimits()
    sync = frozenset(sync_locations)
    report = WellSyncReport(program.name, model.name, sync)

    initial = Execution.initial(program, model, limits.max_nodes_per_thread)
    worklist = [initial]
    seen = {initial.state_key()}
    seen_races: set[tuple] = set()
    explored = 0

    while worklist:
        behavior = worklist.pop()
        explored += 1
        if explored > limits.max_behaviors:
            raise EnumerationError(
                f"well-sync check exceeded {limits.max_behaviors} behaviors"
            )
        if behavior.completed():
            continue
        for load in behavior.eligible_loads():
            candidates = candidate_stores(behavior, load)
            report.resolutions_checked += 1
            if load.addr not in sync and len(candidates) > 1:
                race_key = (load.tid, load.index, load.addr, len(candidates))
                if race_key not in seen_races:
                    seen_races.add(race_key)
                    report.races.append(
                        RaceReport(
                            thread=program.threads[load.tid].name,
                            index=load.index,
                            location=str(load.addr),
                            candidate_count=len(candidates),
                            candidate_values=tuple(s.stored for s in candidates),
                        )
                    )
            for store in candidates:
                child = behavior.copy()
                try:
                    child.resolve_load(load.nid, store.nid)
                except (CycleError, AtomicityViolation, EnumerationError):
                    continue
                key = child.state_key()
                if key not in seen:
                    seen.add(key)
                    worklist.append(child)
    return report


def reference_enumerate_value_speculation(
    program: Program,
    model: MemoryModel | str,
    validate: bool = True,
    limits: EnumerationLimits | None = None,
) -> ValueSpecResult:
    if isinstance(model, str):
        model = get_model(model)
    if model.store_load_bypass:
        raise ReproError("value speculation is defined for store-atomic models only")
    limits = limits or EnumerationLimits()
    stats = ValueSpecStats()

    initial = Execution.initial(program, model, limits.max_nodes_per_thread)
    worklist = [initial]
    seen = {initial.state_key()}
    finished: dict = {}

    while worklist:
        behavior = worklist.pop()
        stats.explored += 1
        if stats.explored > limits.max_behaviors:
            raise EnumerationError(
                f"value-speculation search exceeded {limits.max_behaviors} behaviors"
            )
        if behavior.completed():
            stats.completed += 1
            finished.setdefault(behavior.loadstore_key(), behavior)
            if len(finished) > limits.max_executions:
                raise EnumerationError(
                    f"value-speculation search exceeded {limits.max_executions} executions"
                )
            continue
        eligible = _value_spec_eligible(behavior)
        if not eligible:
            stats.stuck += 1
            continue
        for load in eligible:
            for store in _value_spec_candidates(behavior, load):
                stats.resolutions += 1
                child = behavior.copy()
                try:
                    _resolve_speculatively(child, load.nid, store.nid, validate)
                except (CycleError, AtomicityViolation):
                    stats.rolled_back += 1
                    continue
                except EnumerationError:
                    stats.truncated += 1
                    continue
                key = child.state_key()
                if key in seen:
                    stats.duplicates += 1
                    continue
                seen.add(key)
                worklist.append(child)

    executions = sorted(finished.values(), key=lambda e: repr(e.loadstore_key()))
    illegal = []
    if not validate:
        illegal = [e for e in executions if not closure_satisfiable(e)]
        stats.unvalidated = len(illegal)
    return ValueSpecResult(program, model, validate, executions, illegal, stats)


def reference_search_restricted(
    encoding: Encoding,
    assignment: dict[int, int | None],
    limits: EnumerationLimits,
    work: EnumerationStats,
    start: float,
) -> list[Execution]:
    skeleton_size = len(encoding.base.graph)
    found: dict[str, Execution] = {}
    seen: set[bytes] = set()
    stack = [encoding.base.copy()]
    while stack:
        # The solver's work counting, kept here: every pop is one step
        # of ``work`` against ``max_behaviors``, and at most
        # ``max_executions`` behaviors are kept (FUZZ_LIMITS sets no
        # deadline or memory budget).
        if work.explored >= limits.max_behaviors:
            raise EnumerationError("behavior budget", reason=ExhaustionReason.BEHAVIOR_BUDGET)
        execution = stack.pop()
        work.explored += 1
        if execution.completed():
            key = repr(execution.loadstore_key())
            if key not in found and len(found) >= limits.max_executions:
                raise EnumerationError(
                    "execution budget", reason=ExhaustionReason.EXECUTION_BUDGET
                )
            found.setdefault(key, execution)
            continue
        for load in execution.eligible_loads():
            nid = load.nid
            for store in candidate_stores(execution, load):
                if nid in assignment:
                    target = assignment[nid]
                    if target is None:
                        if store.nid < skeleton_size:
                            continue
                    elif store.nid != target:
                        continue
                work.resolutions += 1
                child = execution.copy()
                try:
                    child.resolve_load(nid, store.nid)
                except (CycleError, AtomicityViolation):
                    continue
                except EnumerationError:
                    work.truncated += 1
                    continue
                key = child.dedup_digest()
                if key not in seen:
                    seen.add(key)
                    stack.append(child)
    return list(found.values())


# ---------------------------------------------------------------------------
# one search, three callers: each must decide exactly as its old copy did


def _run(function, *args):
    """``function(*args)``, or the type of the ReproError it raised."""
    try:
        return function(*args)
    except ReproError as exc:
        return type(exc)


def _wellsync_outcome(report):
    if isinstance(report, type):
        return report
    return (report.races, report.resolutions_checked, report.well_synchronized)


@pytest.mark.slow
def test_wellsync_matches_reference():
    """Races in order, their count and ``resolutions_checked``."""
    racy = 0
    for program in _resolution_programs():
        for model_name in ("sc", "weak"):
            model = get_model(model_name)
            args = (program, model, frozenset(), FUZZ_LIMITS)
            new = _run(check_well_synchronized, *args)
            old = _run(reference_check_well_synchronized, *args)
            assert _wellsync_outcome(new) == _wellsync_outcome(old), (program.name, model_name)
            racy += not isinstance(new, type) and not new.well_synchronized
    assert racy > 150


def _valuespec_outcome(result):
    if isinstance(result, type):
        return result
    stats = asdict(result.stats)
    del stats["branched"]  # the old loop never counted it
    return (
        [execution.loadstore_key() for execution in result.executions],
        [execution.loadstore_key() for execution in result.illegal],
        stats,
    )


#: Value speculation resolves loads in any order, so a few fuzz programs
#: explore tens of thousands of states (fz-rmw-7000031: 84k); past this
#: budget both searches must raise, at the same pop.
VALUESPEC_LIMITS = EnumerationLimits(max_behaviors=3_000)


@pytest.mark.slow
@pytest.mark.parametrize("validate", [True, False])
def test_value_speculation_matches_reference(validate):
    """Keys, illegal keys and every counter but ``branched``; the new
    counts satisfy the pop-side identity the old ones broke."""
    compared = 0
    for program in _resolution_programs():
        for model_name in ("sc", "weak"):
            args = (program, model_name, validate, VALUESPEC_LIMITS)
            new = _run(enumerate_value_speculation, *args)
            old = _run(reference_enumerate_value_speculation, *args)
            assert _valuespec_outcome(new) == _valuespec_outcome(old), (
                program.name, model_name,
            )
            if not isinstance(new, type):
                assert new.stats.consistent(), (program.name, model_name)
                compared += 1
    assert compared > 200


def _solve_outcome(program: Program, model_name: str):
    result, stats = solve_behaviors_with_stats(program, model_name, FUZZ_LIMITS)
    return (
        asdict(stats),
        result.complete,
        result.reason,
        result.stats.truncated,
        [execution.loadstore_key() for execution in result.executions],
    )


@pytest.mark.slow
def test_solver_restricted_search_matches_reference(monkeypatch):
    """``SolveStats``, completeness, truncation and keys on every branchy
    program, all four models."""
    cases = [
        (program, model_name)
        for program in _resolution_programs()
        if program.has_branches()
        for model_name in RESOLUTION_MODELS
    ]
    fast = [_solve_outcome(program, model_name) for program, model_name in cases]
    monkeypatch.setattr(
        solver_behaviors,
        "_search_restricted",
        lambda encoding, assignment, limits, work, start, token: reference_search_restricted(
            encoding, assignment, limits, work, start
        ),
    )
    for (program, model_name), outcome in zip(cases, fast):
        assert outcome == _solve_outcome(program, model_name), (program.name, model_name)
    assert len(cases) > 60
    assert sum(outcome[0]["resolutions"] for outcome in fast) > 1000


# ---------------------------------------------------------------------------
# the blocking AllSAT loop: the solver's old model loop, the reference for
# the depth-first walk


class _ReferenceInfeasible(Exception):
    """The current reads-from assignment admits no real execution."""


def reference_step(
    encoding: Encoding, limits: EnumerationLimits, work: EnumerationStats, start: float
) -> None:
    """Count one step of ``work`` (a SAT call or a replay resolution),
    first raising the enumerator's strict :class:`EnumerationError` if a
    budget is spent.  Only the restricted :func:`_search` charges memory."""
    reason = engine._budget_exhausted(limits, work, start, engine._MemoryAccountant(None), None)
    if reason is not None:
        raise engine._strict_error(reason, encoding.program, encoding.model, limits)
    work.explored += 1


def reference_replay(
    encoding: Encoding,
    assignment: dict[int, int | None],
    limits: EnumerationLimits,
    work: EnumerationStats,
    start: float,
) -> Execution | None:
    """The unique completion of a complete straight-line assignment, or
    ``None``.  Deferral (a load whose target is not yet a candidate —
    e.g. its source's own priors are unresolved, or buffer visibility
    under bypass) is order-*sensitive*, so failed frontiers backtrack;
    cycles and atomicity violations are order-independent and abort."""
    try:
        return reference_attempt(
            encoding, assignment, limits, work, start, set(),
            encoding.base.copy(), frozenset(assignment),
        )
    except _ReferenceInfeasible:
        return None


def reference_attempt(
    encoding: Encoding,
    assignment: dict[int, int | None],
    limits: EnumerationLimits,
    work: EnumerationStats,
    start: float,
    failed: set[frozenset[int]],
    execution: Execution,
    pending: frozenset[int],
) -> Execution | None:
    """One frontier of :func:`reference_replay`: resolve a ``pending``
    load now, then the rest.  ``failed`` memoizes the frontiers that led
    nowhere."""
    if not pending:
        return execution if execution.completed() else None
    if pending in failed:
        return None
    for load in execution.eligible_loads():
        nid = load.nid
        if nid not in pending:
            continue
        target = assignment[nid]
        if target not in {c.nid for c in candidate_stores(execution, load)}:
            continue  # possibly resolvable after another load; defer
        reference_step(encoding, limits, work, start)
        work.resolutions += 1
        child = execution.copy()
        try:
            child.resolve_load(nid, target)
        except (CycleError, AtomicityViolation):
            raise _ReferenceInfeasible from None
        found = reference_attempt(
            encoding, assignment, limits, work, start, failed, child, pending - {nid}
        )
        if found is not None:
            return found
    failed.add(pending)
    return None


def reference_materialize(
    encoding: Encoding,
    assignment: dict[int, int | None],
    limits: EnumerationLimits,
    work: EnumerationStats,
    start: float,
) -> list[Execution]:
    if encoding.has_extension:
        return solver_behaviors._search_restricted(encoding, assignment, limits, work, start, None)
    execution = reference_replay(encoding, assignment, limits, work, start)
    return [] if execution is None else [execution]


def reference_solve_behaviors(
    program: Program,
    model: MemoryModel | str,
    limits: EnumerationLimits | None = None,
):
    """``(result, stats)``: every model of the axiom CNF, each blocked
    and the search restarted from the root until UNSAT."""
    start = time.monotonic()
    if isinstance(model, str):
        model = get_model(model)
    if limits is None:
        limits = EnumerationLimits()
    encoding = encode_program(
        program,
        model,
        max_nodes_per_thread=limits.max_nodes_per_thread,
    )
    solver = encoding.solver
    stats = solver_behaviors.SolveStats()
    work = EnumerationStats()
    behaviors: dict[str, Execution] = {}
    reason: ExhaustionReason | None = None
    try:
        while True:
            reference_step(encoding, limits, work, start)
            if not solver.solve():
                break
            stats.proposals += 1
            assignment = encoding.rf_assignment()
            materialized = reference_materialize(encoding, assignment, limits, work, start)
            if materialized:
                stats.feasible += 1
            else:
                stats.infeasible += 1
            for execution in materialized:
                key = repr(execution.loadstore_key())
                if key not in behaviors and len(behaviors) >= limits.max_executions:
                    raise engine._strict_error(
                        ExhaustionReason.EXECUTION_BUDGET, program, model, limits
                    )
                behaviors.setdefault(key, execution)
            encoding.block(assignment)
    except EnumerationError as stop:
        if not isinstance(stop.reason, ExhaustionReason):
            raise
        reason = stop.reason
    stats.resolutions = work.resolutions
    stats.behaviors = len(behaviors)
    stats.conflicts = solver.conflicts
    stats.decisions = solver.decisions
    stats.propagations = solver.propagations
    return sorted(behaviors), reason is None, stats


def _walk_outcome(stats):
    return (stats.proposals, stats.feasible, stats.infeasible, stats.behaviors)


@pytest.mark.slow
def test_depth_first_walk_matches_blocking_reference():
    """The depth-first walk finds what the blocking loop finds: the same
    keys, completeness and model counts, with no more resolutions."""
    cases = [
        (program, model_name)
        for program in [test.program for test in all_tests()] + [
            generate_program(derive_seed(7, index), profile_for_index(MIXED, index))
            for index in range(60)
        ]
        for model_name in RESOLUTION_MODELS
    ]
    saved = 0
    for program, model_name in cases:
        result, stats = solve_behaviors_with_stats(program, model_name, FUZZ_LIMITS)
        keys, complete, reference = reference_solve_behaviors(program, model_name, FUZZ_LIMITS)
        label = (program.name, model_name)
        assert sorted(repr(e.loadstore_key()) for e in result.executions) == keys, label
        assert result.complete == complete, label
        assert _walk_outcome(stats) == _walk_outcome(reference), label
        assert stats.resolutions <= reference.resolutions, label
        saved += reference.resolutions - stats.resolutions
    assert saved > 0
