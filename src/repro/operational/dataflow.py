"""An operational machine for store-atomic relaxed models.

The paper proves store-atomic executions serializable: every behavior is
some linearization of the thread-local ``≺`` orders executed against one
atomic memory.  Run forwards, that is an *operational* machine for any
store-atomic table model — WEAK included:

* at each step pick any instruction whose thread-local obligations are
  met: register operands ready, and every program-earlier instruction
  the reordering table orders before it already executed (same-address
  entries wait for the earlier address to be known),
* loads read the current memory; stores write it immediately; RMWs do
  both atomically; fences are no-ops once their ordered predecessors ran.

Exploring all choices with memoization yields the machine's outcome set.
The TAB-XVAL-style theorem checked by the test suite: this machine's
outcomes coincide **exactly** with the axiomatic enumerator's under the
same table, on the branch-free litmus tests and on random programs —
the operational/axiomatic equivalence for the paper's own model class.

Branches are not supported (weak models let loads speculate past
branches, which an explicit-state machine cannot express without
rollback machinery); use the axiomatic enumerator for branchy programs.

Everything that depends only on the program and the table — operand
producers, the earlier instructions ordered ALWAYS or SAME_ADDRESS
before each instruction, its kind, the final writer of each register —
is computed once per call into static rows.  A state is the per-thread
results tuples (None = not executed) plus the memory values in sorted
location order.

**Local-step reduction.**  A state in which some ready row is a
``Compute`` or a fence executes that row alone — the lowest thread, then
the lowest index, chosen by :func:`_local_row` — instead of expanding
every ready row.  Such a row reads only results that are already fixed
and writes only its own result cell; results are written once, and
readiness only grows as results fill in, so the row commutes with every
other ready row and nothing can disable it.  It is a singleton
persistent set, every terminal state stays reachable, and each step
fills one more cell, so the reduced graph has no cycles at all.  The
outcome set is unchanged; ``states_explored`` and ``terminal_states``
count the reduced search (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.execution import instruction_operands
from repro.errors import EnumerationError, ReproError
from repro.isa.instructions import Compute, Fence, Load, Rmw, Store, alu_eval
from repro.isa.operands import Const, Reg, Value
from repro.isa.program import Program, Thread
from repro.models.base import MemoryModel, OrderRequirement
from repro.models.registry import get_model

#: Instruction kinds of a static row.
_FENCE, _COMPUTE, _LOAD, _STORE, _RMW = range(5)
_KINDS = {Fence: _FENCE, Compute: _COMPUTE, Load: _LOAD, Store: _STORE, Rmw: _RMW}
#: Kinds whose ready rows are thread-private steps.
_LOCAL_KINDS = (_COMPUTE, _FENCE)


@dataclass
class DataflowResult:
    outcomes: frozenset
    states_explored: int = 0
    terminal_states: int = 0


def _source(operand, last_writer: dict[str, int]) -> tuple[int, Value]:
    """An operand as ``(producer, constant)``: its value is the
    producer's result when ``producer >= 0``, else the constant (a
    register no earlier instruction writes reads 0)."""
    if isinstance(operand, Reg):
        producer = last_writer.get(operand.name)
        return (-1, 0) if producer is None else (producer, 0)
    assert isinstance(operand, Const)
    return -1, operand.value


def _static_rows(thread: Thread, model: MemoryModel) -> tuple[tuple, dict[str, int]]:
    """One row per instruction: ``(kind, sources, address, waits,
    always, same_address, instruction)`` — the operand sources, the
    address source (None for no address), the producers it waits on,
    the earlier indices the model orders ALWAYS before it, the earlier
    ``(index, address source)`` pairs it checks by address
    (SAME_ADDRESS), and the instruction itself for its ALU op or RMW
    rule.  Also the final writer of each register the thread writes."""
    rows = []
    addresses: list[tuple[int, Value] | None] = []
    last_writer: dict[str, int] = {}
    for index, instruction in enumerate(thread.code):
        sources = tuple(
            _source(operand, last_writer)
            for operand in instruction_operands(instruction)
        )
        waits = tuple(sorted({producer for producer, _ in sources if producer >= 0}))
        always = []
        same_address = []
        for earlier in range(index):
            requirement = model.requirement(thread.code[earlier], instruction)
            if requirement is OrderRequirement.ALWAYS:
                always.append(earlier)
            elif requirement is OrderRequirement.SAME_ADDRESS:
                same_address.append((earlier, addresses[earlier]))
        address = sources[0] if instruction.addr_operand() is not None else None
        addresses.append(address)
        rows.append(
            (
                _KINDS[type(instruction)],
                sources,
                address,
                waits,
                tuple(always),
                tuple(same_address),
                instruction,
            )
        )
        destination = instruction.dest()
        if destination is not None:
            last_writer[destination.name] = index
    return tuple(rows), last_writer


def _value_of(results, source):
    producer, constant = source
    return constant if producer < 0 else results[producer]


def _ready(results, row) -> bool:
    """Whether a not-yet-executed instruction may execute now."""
    _kind, _sources, address, waits, always, same_address, _instruction = row
    for producer in waits:
        if results[producer] is None:
            return False
    for earlier in always:
        if results[earlier] is None:
            return False
    if same_address:
        # SAME_ADDRESS: the earlier address must be known to differ.
        my_address = None if address is None else _value_of(results, address)
        for earlier, earlier_source in same_address:
            if results[earlier] is not None:
                continue
            if earlier_source is None:
                return False
            earlier_address = _value_of(results, earlier_source)
            if earlier_address is None or earlier_address == my_address:
                return False
    return True


def _local_row(rows, states) -> tuple[int, int] | None:
    """``(tid, index)`` of the lowest-tid, then lowest-index, ready
    ``Compute`` or fence row of a state, or None when there is none."""
    for tid, results in enumerate(states):
        for index, row in enumerate(rows[tid]):
            if row[0] in _LOCAL_KINDS and results[index] is None and _ready(results, row):
                return tid, index
    return None


def run_dataflow(
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
    rows = []
    #: per thread, ``((thread, register), final writer)`` pairs.
    final_writers = []
    for thread in threads:
        thread_rows, last_writer = _static_rows(thread, model)
        rows.append(thread_rows)
        final_writers.append(
            tuple(((thread.name, register), index) for register, index in last_writer.items())
        )
    locations = sorted(program.locations())
    slot = {location: position for position, location in enumerate(locations)}

    initial = (
        tuple((None,) * len(thread.code) for thread in threads),
        tuple(program.initial_value(location) for location in locations),
    )

    def read(memory, address):
        position = slot.get(address)
        if position is None:
            raise EnumerationError(f"dataflow machine read unknown location {address!r}")
        return memory[position]

    def write(memory, address, value):
        position = slot.get(address)
        if position is None:
            return memory
        return memory[:position] + (value,) + memory[position + 1 :]

    def step(states, memory, tid, index):
        """The successor when row ``index`` of thread ``tid`` executes."""
        results = states[tid]
        kind, sources, address, _waits, _always, _same, instruction = rows[tid][index]
        successor_memory = memory
        if kind == _FENCE:
            value: Value = 0
        elif kind == _COMPUTE:
            value = alu_eval(instruction.op, tuple(_value_of(results, s) for s in sources))
        elif kind == _LOAD:
            value = read(memory, _value_of(results, address))
        elif kind == _STORE:
            value = _value_of(results, sources[1])
            successor_memory = write(memory, _value_of(results, address), value)
        else:
            location = _value_of(results, address)
            old = read(memory, location)
            args = tuple(_value_of(results, s) for s in sources[1:])
            stored = instruction.stored_value(old, args)
            if stored is not None:
                successor_memory = write(memory, location, stored)
            value = old
        return (
            states[:tid]
            + (results[:index] + (value,) + results[index + 1 :],)
            + states[tid + 1 :],
            successor_memory,
        )

    stack = [initial]
    seen = {initial}
    outcomes = set()
    terminal = 0

    while stack:
        states, memory = stack.pop()
        if len(seen) > max_states:
            raise EnumerationError(f"dataflow machine exceeded {max_states} states")
        local = _local_row(rows, states)
        if local is not None:
            successors = [step(states, memory, *local)]
        else:
            successors = [
                step(states, memory, tid, index)
                for tid, results in enumerate(states)
                for index, row in enumerate(rows[tid])
                if results[index] is None and _ready(results, row)
            ]
            if not successors:
                terminal += 1
                outcomes.add(
                    frozenset(
                        (key, results[index])
                        for writers, results in zip(final_writers, states)
                        for key, index in writers
                        if results[index] is not None
                    )
                )
        for next_state in successors:
            explored = len(seen)
            seen.add(next_state)
            if len(seen) > explored:  # new: one hash instead of two
                stack.append(next_state)

    return DataflowResult(frozenset(outcomes), len(seen), terminal)
