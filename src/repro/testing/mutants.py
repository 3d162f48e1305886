"""Seeded mutants for proving the fuzzer can actually catch bugs.

Each :class:`Mutant` is a reversible monkeypatch that plants one classic
memory-model-implementation bug — a flipped reordering-table entry, a
dropped Store Atomicity closure rule, a broken candidate-store filter —
into exactly *one* side of a differential oracle.  The mutation-kill
harness (``repro fuzz --mutants``) then demands that the fuzzer detect
every mutant within its budget and shrink the counterexample to a tiny
reproducer.

Design rules (learned the hard way):

* A mutant must break only one implementation.  Patching
  :meth:`MemoryModel.requirement` affects both the axiomatic enumerator
  *and* the dataflow machine, so table-flip mutants are restricted to
  sc/tso/pso — their reference machines (interleaver, store buffers) are
  hardware-style and never consult the table.  Weak-model mutants attack
  enumerator-only internals (closure, candidate filters) or machine-only
  internals (store-buffer forwarding) instead.
* Patches are process-local, so the mutation campaign runs with
  ``jobs=1``: every oracle then observes the mutated code.

The patch/restore discipline follows ``testing/faults.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import ReproError
from repro.isa.instructions import OpClass
from repro.models.base import MemoryModel, OrderRequirement

Undo = Callable[[], None]


@dataclass(frozen=True)
class Mutant:
    """One seeded bug: a name, a story, and a reversible patch."""

    name: str
    description: str
    install: Callable[[], Undo]

    @contextmanager
    def applied(self) -> Iterator[None]:
        undo = self.install()
        try:
            yield
        finally:
            undo()


# ---------------------------------------------------------------------------
# reordering-table flips (axiomatic side only: sc/tso/pso reference
# machines never read the table)


def _relax_table_entry(model_name: str, first: OpClass, second: OpClass) -> Undo:
    original = MemoryModel.requirement

    def mutated(self, first_instr, second_instr):
        if (
            self.name == model_name
            and first_instr.op_class is first
            and second_instr.op_class is second
        ):
            return OrderRequirement.NONE
        return original(self, first_instr, second_instr)

    MemoryModel.requirement = mutated  # type: ignore[method-assign]

    def undo() -> None:
        MemoryModel.requirement = original  # type: ignore[method-assign]

    return undo


def _install_sc_load_load() -> Undo:
    return _relax_table_entry("sc", OpClass.LOAD, OpClass.LOAD)


def _install_tso_store_store() -> Undo:
    return _relax_table_entry("tso", OpClass.STORE, OpClass.STORE)


def _install_pso_load_store() -> Undo:
    return _relax_table_entry("pso", OpClass.LOAD, OpClass.STORE)


# ---------------------------------------------------------------------------
# Store Atomicity closure dropped (axiomatic side only)


def _install_closure_dropped() -> Undo:
    import repro.core.execution as execution_module

    original = execution_module.close_store_atomicity
    execution_module.close_store_atomicity = lambda graph, include_rule_c=True: 0

    def undo() -> None:
        execution_module.close_store_atomicity = original

    return undo


# ---------------------------------------------------------------------------
# candidate-store filters broken (axiomatic side only)


def _install_candidates_drop_init() -> Undo:
    """The classic off-by-one in candidates(L): forget that the init
    store stays observable until somebody overwrites it in ⊑."""
    import repro.core.enumerate as enumerate_module
    from repro.core.node import INIT_TID

    original = enumerate_module.candidate_stores

    def mutated(execution, load, stats=None):
        result = original(execution, load, stats)
        non_init = [store for store in result if store.tid != INIT_TID]
        return non_init if non_init else result

    enumerate_module.candidate_stores = mutated

    def undo() -> None:
        enumerate_module.candidate_stores = original

    return undo


def _install_bypass_filter_disabled() -> Undo:
    """Forget store-buffer shadowing in the axiomatic bypass filter:
    TSO/PSO loads may again read *older* local buffered stores."""
    import repro.core.candidates as candidates_module

    original = candidates_module._filter_bypass
    candidates_module._filter_bypass = lambda execution, load, stores: stores

    def undo() -> None:
        candidates_module._filter_bypass = original

    return undo


# ---------------------------------------------------------------------------
# Load Resolution reduced unsoundly (axiomatic side only)


def _install_eligible_first_only() -> Undo:
    """The naive partial-order reduction: branch on the first eligible
    load whether or not it is stable.  A load resolved before a store
    it could observe has executed never sees that store, so LB under
    sc/tso/pso loses the outcome where the first thread's load reads
    the second thread's store."""
    import repro.core.enumerate as enumerate_module

    original = enumerate_module._stable_eligible
    enumerate_module._stable_eligible = lambda behavior: behavior.eligible_loads()[:1]

    def undo() -> None:
        enumerate_module._stable_eligible = original

    return undo


# ---------------------------------------------------------------------------
# operational side broken (machines only)


def _install_forwarding_disabled() -> Undo:
    """Store-buffer machines stop forwarding: loads read memory even
    when their own buffer holds a newer same-address store."""
    import repro.operational.storebuffer as storebuffer_module

    original = storebuffer_module._forward
    storebuffer_module._forward = lambda buffer, address: None

    def undo() -> None:
        storebuffer_module._forward = original

    return undo


def _install_forwarded_load_local() -> Undo:
    """The unsound extension of the store-buffer local-step reduction:
    a load that forwards from its own buffer is taken as a lone step
    too.  Whether the entry is still buffered depends on the drains, so
    CoWR under TSO loses the outcome where the load reads another
    thread's later store after its own store drained."""
    import repro.operational.storebuffer as storebuffer_module
    from repro.isa.instructions import Load
    from repro.operational.state import resolve_address

    original = storebuffer_module._local_step

    def mutated(program, fifo, state):
        threads, _memory, buffers = state
        for tid, thread_state in enumerate(threads):
            thread = program.threads[tid]
            if thread_state.done(thread):
                continue
            instruction = thread_state.current(thread)
            if isinstance(instruction, Load):
                address = resolve_address(thread_state, instruction.addr)
                if storebuffer_module._forward(buffers[tid], address) is not None:
                    return storebuffer_module._step(program, fifo, state, tid)
        return original(program, fifo, state)

    storebuffer_module._local_step = mutated

    def undo() -> None:
        storebuffer_module._local_step = original

    return undo


MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "sc-load-load-relaxed",
        "SC reordering table wrongly allows Load-Load reordering "
        "(axiomatic only; the interleaver is table-free)",
        _install_sc_load_load,
    ),
    Mutant(
        "tso-store-store-relaxed",
        "TSO reordering table wrongly allows Store-Store reordering "
        "(turns TSO into PSO on the axiomatic side only)",
        _install_tso_store_store,
    ),
    Mutant(
        "pso-load-store-relaxed",
        "PSO reordering table wrongly allows Load-Store reordering "
        "(axiomatic side drifts toward WEAK)",
        _install_pso_load_store,
    ),
    Mutant(
        "closure-dropped",
        "Store Atomicity closure rules silently skipped during "
        "axiomatic edge propagation",
        _install_closure_dropped,
    ),
    Mutant(
        "candidates-drop-init",
        "candidates(L) forgets the init store whenever any other "
        "same-address store exists",
        _install_candidates_drop_init,
    ),
    Mutant(
        "bypass-filter-disabled",
        "axiomatic store-load bypass filter stops shadowing older "
        "local buffered stores",
        _install_bypass_filter_disabled,
    ),
    Mutant(
        "eligible-first-only",
        "Load Resolution branches on the first eligible load only, "
        "stable or not (enumeration loses behaviors)",
        _install_eligible_first_only,
    ),
    Mutant(
        "forwarding-disabled",
        "store-buffer machines stop forwarding from the local buffer",
        _install_forwarding_disabled,
    ),
    Mutant(
        "forwarded-load-local",
        "store-buffer local-step reduction also takes a load forwarded "
        "from the thread's own buffer as a lone step (machines lose outcomes)",
        _install_forwarded_load_local,
    ),
)

_BY_NAME = {mutant.name: mutant for mutant in MUTANTS}


def get_mutant(name: str) -> Mutant:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ReproError(f"unknown mutant {name!r}; known mutants: {known}") from None


__all__ = ["MUTANTS", "Mutant", "get_mutant"]
