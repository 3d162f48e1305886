"""Memory models as data: reordering tables + atomicity flavor.

The paper's thesis is in the title: a memory model is a set of
thread-local **instruction reordering** axioms plus **Store Atomicity**.
Here a model is represented by:

* a :class:`ReorderingTable` mapping ordered pairs of instruction classes
  to an :class:`OrderRequirement` (the paper's Figure 1 entries:
  blank / "never" / "indep" / "x ≠ y"),
* a ``store_load_bypass`` flag selecting the non-atomic TSO/PSO treatment
  of same-thread store→load pairs (Section 6's grey edges),
* a ``speculative_aliasing`` flag selecting Section 5's address-aliasing
  speculation (drop the alias-resolution dependencies, roll back on
  violation).

"indep" entries need no table representation: register dataflow edges are
always inserted, so an instruction pair constrained only by data
dependencies has table entry ``NONE``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ProgramError
from repro.isa.instructions import Fence, Instruction, OpClass


class OrderRequirement(enum.IntEnum):
    """How strongly a pair of same-thread instructions must stay ordered.

    Values are comparable: a larger value is a stronger requirement, and
    an RMW inherits the strongest requirement of its load and store
    halves.
    """

    NONE = 0  #: freely reorderable (data dependencies still apply)
    SAME_ADDRESS = 1  #: ordered iff the two operations alias ("x ≠ y" entries)
    ALWAYS = 2  #: never reorderable ("never" entries)


#: Classes that can appear in reordering-table keys (RMW is expanded).
_TABLE_CLASSES = (OpClass.COMPUTE, OpClass.BRANCH, OpClass.LOAD, OpClass.STORE)


def _expand(op_class: OpClass) -> tuple[OpClass, ...]:
    """RMW behaves as both a Load and a Store for ordering purposes."""
    if op_class is OpClass.RMW:
        return (OpClass.LOAD, OpClass.STORE)
    return (op_class,)


@dataclass(frozen=True)
class ReorderingTable:
    """An immutable reordering-axiom table.

    ``entries`` maps ``(first_class, second_class)`` to a requirement;
    missing pairs default to :data:`OrderRequirement.NONE`.  Fences are
    not table entries — their ordering power is carried by their
    :class:`~repro.isa.instructions.FenceKind` uniformly across models.
    """

    entries: dict[tuple[OpClass, OpClass], OrderRequirement] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for (first, second) in self.entries:
            if first not in _TABLE_CLASSES or second not in _TABLE_CLASSES:
                raise ProgramError(
                    f"table entries use COMPUTE/BRANCH/LOAD/STORE classes, got "
                    f"({first}, {second}); RMW and FENCE are derived"
                )

    def lookup(self, first: OpClass, second: OpClass) -> OrderRequirement:
        """Requirement between two classes, expanding RMW to its halves."""
        requirement = OrderRequirement.NONE
        for f in _expand(first):
            for s in _expand(second):
                requirement = max(requirement, self.entries.get((f, s), OrderRequirement.NONE))
        return requirement


@dataclass(frozen=True)
class MemoryModel:
    """A complete memory-model definition.

    ``store_load_bypass`` — same-thread (Store, Load) pairs are exempt
    from the table and handled by store-buffer semantics: a load may
    forward from the newest program-earlier same-address store via a grey
    edge, or observe a remote store after acquiring a real ``≺`` edge
    from each program-earlier same-address local store (paper §6).

    ``speculative_aliasing`` — suppress the §5.1 address-resolution
    dependencies; deferred same-address edges are inserted when addresses
    resolve, and executions where insertion is inconsistent are discarded
    (the §5.2 rollback).
    """

    name: str
    table: ReorderingTable
    store_load_bypass: bool = False
    speculative_aliasing: bool = False
    description: str = ""

    def requirement(self, first: Instruction, second: Instruction) -> OrderRequirement:
        """Ordering requirement between two same-thread instructions, in
        program order ``first`` then ``second``.

        Acquire/release access annotations act as half fences in every
        model: an acquire load (or RMW) is ordered before all later
        memory operations; all earlier memory operations are ordered
        before a release store (or RMW).
        """
        fc, sc = first.op_class, second.op_class
        if fc is OpClass.FENCE or sc is OpClass.FENCE:
            return self._fence_requirement(first, second)
        if (
            getattr(first, "acquire", False)
            and fc.reads_memory()
            and sc.is_memory()
        ):
            return OrderRequirement.ALWAYS
        if (
            getattr(second, "release", False)
            and sc.writes_memory()
            and fc.is_memory()
        ):
            return OrderRequirement.ALWAYS
        if self.store_load_bypass and fc is OpClass.STORE and sc is OpClass.LOAD:
            # Bypass models exempt plain Store->Load from the table;
            # coherence of same-address pairs is restored by the forwarding
            # rules at load resolution.
            return OrderRequirement.NONE
        if self.store_load_bypass and fc is OpClass.STORE and sc is OpClass.RMW:
            # Atomics drain the store buffer before acting on memory, so
            # every program-earlier store is globally ordered before an RMW
            # regardless of address (matters for PSO, whose Store/Store
            # table entry is address-dependent).
            return OrderRequirement.ALWAYS
        return self.table.lookup(fc, sc)

    @staticmethod
    def _fence_requirement(first: Instruction, second: Instruction) -> OrderRequirement:
        if isinstance(first, Fence) and isinstance(second, Fence):
            return OrderRequirement.ALWAYS
        if isinstance(first, Fence):
            if first.kind.orders_after(second.op_class):
                return OrderRequirement.ALWAYS
            return OrderRequirement.NONE
        assert isinstance(second, Fence)
        if second.kind.orders_before(first.op_class):
            return OrderRequirement.ALWAYS
        return OrderRequirement.NONE

    def class_requirement(self, first: OpClass, second: OpClass) -> OrderRequirement:
        """Table-level requirement between instruction classes (fences are
        reported as FULL fences).  Used for rendering Figure 1."""
        if first is OpClass.FENCE or second is OpClass.FENCE:
            if first is OpClass.FENCE and second is OpClass.FENCE:
                return OrderRequirement.ALWAYS
            other = second if first is OpClass.FENCE else first
            if other.is_memory():
                return OrderRequirement.ALWAYS
            return OrderRequirement.NONE
        if self.store_load_bypass and first is OpClass.STORE and second is OpClass.LOAD:
            return OrderRequirement.NONE
        if self.store_load_bypass and first is OpClass.STORE and second is OpClass.RMW:
            return OrderRequirement.ALWAYS
        return self.table.lookup(first, second)

    def canonical_form(self) -> dict:
        """The model's full semantic content as JSON-ready data (what
        cache keys and the campaign's model digest hash)."""
        return {
            "name": self.name,
            "store_load_bypass": bool(self.store_load_bypass),
            "speculative_aliasing": bool(self.speculative_aliasing),
            "table": sorted(
                (first.value, second.value, int(requirement))
                for (first, second), requirement in self.table.entries.items()
            ),
        }

    @classmethod
    def from_canonical_form(cls, form: dict) -> "MemoryModel":
        """The model whose :meth:`canonical_form` is ``form`` (the
        description is not part of it)."""
        entries = {
            (OpClass(first), OpClass(second)): OrderRequirement(requirement)
            for first, second, requirement in form["table"]
        }
        return cls(
            name=form["name"],
            table=ReorderingTable(entries),
            store_load_bypass=form["store_load_bypass"],
            speculative_aliasing=form["speculative_aliasing"],
        )

    def __str__(self) -> str:
        flags = []
        if self.store_load_bypass:
            flags.append("bypass")
        if self.speculative_aliasing:
            flags.append("speculative-aliasing")
        suffix = f" ({', '.join(flags)})" if flags else ""
        return f"<MemoryModel {self.name}{suffix}>"
