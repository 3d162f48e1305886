"""Dynamic instruction instances — the nodes of an execution graph.

A :class:`Node` is one dynamically executed instruction.  Nodes start
*unresolved* (paper Section 4: "When a node is generated, it is in an
unresolved state") and become resolved/executed when their value can be
computed — for Loads and Rmws this requires choosing a candidate store.

Node identity is deterministic: ``(tid, index)`` — the thread and the
dynamic position within that thread — so two executions of the same
program are directly comparable node-by-node without graph isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Instruction, OpClass
from repro.isa.operands import Value

#: Thread id used for the init pseudo-thread holding initializing stores.
INIT_TID = -1


@dataclass(slots=True)
class Node:
    """One dynamic instruction instance.

    Fields fall into two groups — static (set at generation) and dynamic
    (filled in as the node resolves):

    Static:
      * ``nid`` — the node's index in the graph (also its bit position in
        reachability bitsets).
      * ``tid`` / ``index`` — deterministic identity.
      * ``instruction`` — the static instruction (None for init stores).
      * ``op_class`` — cached instruction class.
      * ``operand_sources`` — for each operand (in the instruction's
        canonical operand order), the nid of the node producing its value,
        or None when the operand is a constant or an unwritten register.
      * ``static_index`` — the instruction's position in the thread's
        static code (differs from ``index`` after a backwards branch;
        None for init stores).  Keys the node into per-instruction
        static facts.

    Derived (set at construction from ``tid`` and ``op_class``, which
    never change; plain attributes because the engine's hot loops read
    them on every node):
      * ``is_init`` — an init store (the init pseudo-thread).
      * ``reads_memory`` — a Load or an Rmw.
      * ``writes_memory`` — whether the node *may* write memory (a Store
        or an Rmw: class-level, not outcome).
      * ``is_memory`` — reads or writes memory.

    Dynamic:
      * ``executed`` — value computed / load resolved / branch decided.
      * ``value`` — the register-visible result (load result, ALU result,
        branch condition value); for plain stores, mirrors ``stored``.
      * ``addr`` — resolved memory address (memory ops only).
      * ``source`` — nid of the observed store (loads/rmws only).
      * ``writes`` — the store side is visible to memory (stores; rmws
        when the write happens — a failed CAS does not write).
      * ``stored`` — the value made visible to memory.

    Memo (engine-private, never compared or cloned):
      * ``key_fragment`` — the encoded :meth:`state` of a *settled* node,
        kept by :meth:`fragment` for the dedup digest.  A settled node
        never changes again, so the copy-on-write copies that share it
        share the memo too.
    """

    nid: int
    tid: int
    index: int
    instruction: Instruction | None
    op_class: OpClass
    operand_sources: tuple[int | None, ...] = ()
    static_index: int | None = None
    executed: bool = False
    value: Value | None = None
    addr: Value | None = None
    source: int | None = None
    writes: bool = False
    stored: Value | None = None
    is_init: bool = field(init=False, repr=False, compare=False)
    reads_memory: bool = field(init=False, repr=False, compare=False)
    writes_memory: bool = field(init=False, repr=False, compare=False)
    is_memory: bool = field(init=False, repr=False, compare=False)
    key_fragment: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        op_class = self.op_class
        self.is_init = self.tid == INIT_TID
        self.reads_memory = op_class is OpClass.LOAD or op_class is OpClass.RMW
        self.writes_memory = op_class is OpClass.STORE or op_class is OpClass.RMW
        self.is_memory = self.reads_memory or self.writes_memory

    @property
    def resolved(self) -> bool:
        """Synonym for executed, matching the paper's terminology for loads."""
        return self.executed

    @property
    def is_visible_store(self) -> bool:
        """True when this node has made a value visible to memory."""
        return self.executed and self.writes

    @property
    def settled(self) -> bool:
        """True when no engine code path will mutate this node again:
        it has executed and, for memory operations, resolved its address
        (a store may execute with its value before its address is known).
        Settled nodes are shared between copy-on-write graph copies."""
        return self.executed and (self.addr is not None or not self.is_memory)

    def clone(self) -> "Node":
        """A field-for-field copy (values are immutable, so shallow).
        Slots are copied directly, derived ones included: this is the
        copy-on-write hot path, and ``__init__`` would recompute them."""
        dup = Node.__new__(Node)
        dup.nid = self.nid
        dup.tid = self.tid
        dup.index = self.index
        dup.instruction = self.instruction
        dup.op_class = self.op_class
        dup.operand_sources = self.operand_sources
        dup.static_index = self.static_index
        dup.executed = self.executed
        dup.value = self.value
        dup.addr = self.addr
        dup.source = self.source
        dup.writes = self.writes
        dup.stored = self.stored
        dup.is_init = self.is_init
        dup.reads_memory = self.reads_memory
        dup.writes_memory = self.writes_memory
        dup.is_memory = self.is_memory
        dup.key_fragment = None  # the clone may be mutated: never share the memo
        return dup

    def state(self, nodes: list["Node"]) -> tuple:
        """This node's entry in :meth:`Execution.state_key
        <repro.core.execution.Execution.state_key>` — identity, class and
        dynamic fields, with the source named by its ``(tid, index)``
        identity (``nodes`` is the graph's node list).  Only ints,
        strings, bools and None, so its ``repr`` is deterministic across
        processes."""
        source = self.source
        return (
            self.tid,
            self.index,
            self.op_class._value_,  # .value, minus the enum property
            self.executed,
            self.value,
            self.addr,
            None if source is None else (nodes[source].tid, nodes[source].index),
            self.writes,
            self.stored,
        )

    def fragment(self, nodes: list["Node"]) -> bytes:
        """``repr(self.state(nodes))`` encoded: this node's piece of the
        dedup digest.  Memoized in ``key_fragment`` once the node is
        settled; an unsettled node may still change, so it is re-encoded
        on every call."""
        fragment = self.key_fragment
        if fragment is None:
            fragment = repr(self.state(nodes)).encode()
            if self.settled:
                self.key_fragment = fragment
        return fragment

    def describe(self) -> str:
        """Compact human-readable description, paper-style."""
        who = "init" if self.is_init else f"T{self.tid}.{self.index}"
        if self.is_init:
            return f"[{who}] S {self.addr!r} := {self.stored!r}"
        text = str(self.instruction)
        bits = []
        if self.addr is not None:
            bits.append(f"addr={self.addr!r}")
        if self.executed and self.value is not None:
            bits.append(f"val={self.value!r}")
        if self.source is not None:
            bits.append(f"src=n{self.source}")
        suffix = f" ({', '.join(bits)})" if bits else ""
        state = "" if self.executed else " [unresolved]"
        return f"[{who}] {text}{suffix}{state}"

    def __str__(self) -> str:
        return self.describe()
