"""Executable behaviors: graph generation + dataflow execution (§4.1).

An :class:`Execution` is the paper's *behavior*: the program counter and
register state of every thread together with the (partially ordered)
execution graph.  The class implements steps 1 and 2 of the enumeration
procedure —

1. **Graph generation**: generate unresolved nodes for each thread,
   stopping at the first unresolved branch, inserting all the solid ``≺``
   edges required by the model's reordering rules ("in effect we keep an
   unbounded instruction buffer as full as possible at all times"), and

2. **Execution**: propagate values dataflow-style along the edges; a
   non-Load instruction is eligible for execution when the instructions
   it requires values from have executed.  When a result serves as an
   address, the deferred aliasing edges are inserted (§5.1).

Step 3 (Load Resolution) lives in :func:`resolve_load` here, with the
candidate computation in :mod:`repro.core.candidates` and the driver loop
in :mod:`repro.core.enumerate`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import EnumerationError, ExecutionError, GraphError
from repro.core.atomicity import close_store_atomicity
from repro.core.graph import EdgeKind, ExecutionGraph, remap_mask
from repro.core.node import INIT_TID, Node
from repro.isa.instructions import (
    Branch,
    Compute,
    Fence,
    Instruction,
    Load,
    OpClass,
    Rmw,
    Store,
    alu_eval,
)
from repro.isa.operands import Const, Operand, Reg, Value
from repro.isa.program import Program
from repro.models.base import MemoryModel, OrderRequirement

#: Sentinel meaning "operand value not yet available".
_UNAVAILABLE = object()

#: Width of :meth:`Execution.dedup_digest`; 16 bytes keeps collision odds
#: negligible (~2⁻⁶⁴ at a billion states) at a fraction of a full key's
#: footprint.
_DIGEST_SIZE = 16


def instruction_operands(instruction: Instruction) -> tuple[Operand, ...]:
    """The canonical operand order used by ``Node.operand_sources``."""
    if isinstance(instruction, Compute):
        return instruction.args
    if isinstance(instruction, Load):
        return (instruction.addr,)
    if isinstance(instruction, Store):
        return (instruction.addr, instruction.value)
    if isinstance(instruction, Branch):
        return (instruction.cond,) if instruction.cond is not None else ()
    if isinstance(instruction, Rmw):
        return (instruction.addr,) + instruction.args
    if isinstance(instruction, Fence):
        return ()
    raise GraphError(f"unknown instruction type {type(instruction).__name__}")


@dataclass
class ThreadState:
    """Per-thread dynamic state: PC, register map, generation status.

    A halted thread state never changes again (see :meth:`Execution.copy`),
    so it keeps its encoded :meth:`state` in ``key_fragment`` like a
    settled node does."""

    pc: int = 0
    regs: dict[str, int] = field(default_factory=dict)  # register name -> producer nid
    waiting_branch: int | None = None  # unresolved branch blocking fetch
    halted: bool = False
    nodes: list[int] = field(default_factory=list)  # generated nids, program order
    key_fragment: bytes | None = field(default=None, repr=False, compare=False)

    def copy(self) -> "ThreadState":
        return ThreadState(
            pc=self.pc,
            regs=dict(self.regs),
            waiting_branch=self.waiting_branch,
            halted=self.halted,
            nodes=list(self.nodes),
        )

    def state(self, nodes: list[Node]) -> tuple:
        """This thread's entry in :meth:`Execution.state_key`, registers
        naming their producers by ``(tid, index)`` identity."""
        regs = sorted((reg, (nodes[nid].tid, nodes[nid].index)) for reg, nid in self.regs.items())
        return (self.pc, self.halted, self.waiting_branch is not None, tuple(regs))

    def fragment(self, nodes: list[Node]) -> bytes:
        """``repr(self.state(nodes))`` encoded; memoized once halted."""
        fragment = self.key_fragment
        if fragment is None:
            fragment = repr(self.state(nodes)).encode()
            if self.halted:
                self.key_fragment = fragment
        return fragment


class Execution:
    """One (possibly partial) behavior of a program under a memory model."""

    def __init__(
        self,
        program: Program,
        model: MemoryModel,
        max_nodes_per_thread: int = 64,
    ) -> None:
        self.program = program
        self.model = model
        self.max_nodes_per_thread = max_nodes_per_thread
        self.graph = ExecutionGraph()
        self.threads: list[ThreadState] = [ThreadState() for _ in program.threads]
        self.init_nodes: dict[Value, int] = {}
        #: (earlier nid, later nid) same-address checks awaiting addresses.
        self.pending_alias: list[tuple[int, int]] = []
        #: The resolution log: every (load nid, store nid) choice of
        #: :meth:`resolve_load`, in order.  It fixes the behavior, so it is
        #: what cache entries and checkpoints store
        #: (:func:`~repro.core.serialization.replay_logs` rebuilds from it).
        self.resolutions: tuple[tuple[int, int], ...] = ()
        #: True when every Load-Resolution step from the search's root to
        #: this behavior branched on a single load: the search is a tree
        #: along such a lineage, so the behavior equals no other state it
        #: generates and needs no dedup digest.  Only the enumerator's
        #: fresh search sets it (on its initial behavior); see
        #: :func:`repro.core.enumerate._branch`.
        self.unique_lineage = False
        self._create_init_stores()

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def initial(
        cls,
        program: Program,
        model: MemoryModel,
        max_nodes_per_thread: int = 64,
    ) -> "Execution":
        """The starting behavior: init stores + saturated generation."""
        execution = cls(program, model, max_nodes_per_thread)
        execution.stabilize()
        return execution

    def _create_init_stores(self) -> None:
        """Memory is initialized with Store operations before any thread is
        started (paper §4) — one visible store per referenced location."""
        for index, location in enumerate(self.program.locations()):
            node = Node(
                nid=len(self.graph),
                tid=INIT_TID,
                index=index,
                instruction=None,
                op_class=OpClass.STORE,
                executed=True,
                writes=True,
                addr=location,
                stored=self.program.initial_value(location),
                value=self.program.initial_value(location),
            )
            self.graph.add_node(node)
            self.init_nodes[location] = node.nid

    def copy(self) -> "Execution":
        """The Load-Resolution branching copy (hot path).

        The graph is copied copy-on-write: settled nodes and successor
        dicts are shared with the parent until first mutation.  This is
        safe because the engine only ever mutates unsettled nodes (which
        :meth:`ExecutionGraph.copy_on_write` clones eagerly) and all
        edge insertion goes through ``add_edge``.  Halted thread states
        are shared too: a thread halts only after fetching its last
        instruction, with every branch it fetched executed (each branch
        blocks fetch until it executes), so nothing mutates its state
        again.
        """
        dup = Execution.__new__(Execution)
        dup.program = self.program
        dup.model = self.model
        dup.max_nodes_per_thread = self.max_nodes_per_thread
        dup.graph = self.graph.copy_on_write()
        dup.threads = [ts if ts.halted else ts.copy() for ts in self.threads]
        dup.init_nodes = self.init_nodes  # write-once at construction
        dup.pending_alias = list(self.pending_alias)
        dup.resolutions = self.resolutions
        dup.unique_lineage = self.unique_lineage
        return dup

    # ------------------------------------------------------------------
    # step 1: graph generation

    def _generate(self) -> bool:
        """Fetch nodes for every thread up to the first unresolved branch
        (or the end of the thread).  Returns True if anything was fetched."""
        progress = False
        for tid, state in enumerate(self.threads):
            code = self.program.threads[tid].code
            while not state.halted and state.waiting_branch is None:
                if state.pc >= len(code):
                    state.halted = True
                    break
                if len(state.nodes) >= self.max_nodes_per_thread:
                    raise EnumerationError(
                        f"thread {self.program.threads[tid].name!r} exceeded "
                        f"{self.max_nodes_per_thread} dynamic instructions "
                        f"(unbounded loop?)"
                    )
                instruction = code[state.pc]
                static_pc = state.pc
                state.pc += 1
                nid = self._append_node(tid, instruction, static_pc)
                if isinstance(instruction, Branch):
                    state.waiting_branch = nid
                progress = True
        return progress

    def _append_node(
        self, tid: int, instruction: Instruction, static_index: int | None = None
    ) -> int:
        state = self.threads[tid]
        operands = instruction_operands(instruction)
        sources = tuple(
            state.regs.get(op.name) if isinstance(op, Reg) else None for op in operands
        )
        node = Node(
            nid=len(self.graph),
            tid=tid,
            index=len(state.nodes),
            instruction=instruction,
            op_class=instruction.op_class,
            operand_sources=sources,
            static_index=static_index,
        )
        self.graph.add_node(node)

        # Init stores precede every thread operation.
        for init_nid in self.init_nodes.values():
            self.graph.add_edge(init_nid, node.nid, EdgeKind.INIT)

        # Register dataflow.
        for producer in set(source for source in sources if source is not None):
            self.graph.add_edge(producer, node.nid, EdgeKind.DATA)

        # Reordering-table edges against every prior node in this thread.
        for prior_nid in state.nodes:
            prior = self.graph.node(prior_nid)
            assert prior.instruction is not None
            requirement = self.model.requirement(prior.instruction, instruction)
            if requirement is OrderRequirement.ALWAYS:
                self.graph.add_edge(prior_nid, node.nid, EdgeKind.PROGRAM)
            elif requirement is OrderRequirement.SAME_ADDRESS:
                self._register_alias_pair(prior, node)

        # Constant addresses resolve immediately.
        addr_operand = instruction.addr_operand()
        if isinstance(addr_operand, Const):
            self._set_address(node, addr_operand.value)

        destination = instruction.dest()
        if destination is not None:
            state.regs[destination.name] = node.nid
        state.nodes.append(node.nid)
        return node.nid

    def _register_alias_pair(self, prior: Node, node: Node) -> None:
        """Handle an ``x ≠ y`` table entry between two memory operations.

        With both addresses statically constant the decision is immediate.
        Otherwise the pair is deferred until both addresses resolve; in the
        non-speculative model the later operation additionally depends on
        the instruction producing the earlier operation's address (§5.1).
        """
        prior_addr = prior.instruction.addr_operand() if prior.instruction else None
        node_addr = node.instruction.addr_operand() if node.instruction else None
        if isinstance(prior_addr, Const) and isinstance(node_addr, Const):
            if prior_addr.value == node_addr.value:
                self.graph.add_edge(prior.nid, node.nid, EdgeKind.PROGRAM)
            return
        self.pending_alias.append((prior.nid, node.nid))
        if not self.model.speculative_aliasing and isinstance(prior_addr, Reg):
            producer = prior.operand_sources[0]  # addr is operand 0 for memory ops
            if producer is not None:
                self.graph.add_edge(producer, node.nid, EdgeKind.ADDR_DEP)

    # ------------------------------------------------------------------
    # step 2: dataflow execution

    def operand_value(self, node: Node, position: int):
        """The value of ``node``'s operand at ``position``, or the
        unavailable sentinel.  Unwritten registers read as integer 0."""
        assert node.instruction is not None
        operand = instruction_operands(node.instruction)[position]
        if isinstance(operand, Const):
            return operand.value
        producer = node.operand_sources[position]
        if producer is None:
            return 0
        producer_node = self.graph.node(producer)
        if not producer_node.executed:
            return _UNAVAILABLE
        return producer_node.value

    def _operand_values(self, node: Node) -> tuple | None:
        """All operand values, or None if any is unavailable."""
        assert node.instruction is not None
        values = []
        for position in range(len(instruction_operands(node.instruction))):
            value = self.operand_value(node, position)
            if value is _UNAVAILABLE:
                return None
            values.append(value)
        return tuple(values)

    def _set_address(self, node: Node, address: Value) -> None:
        if not isinstance(address, str):
            raise ExecutionError(
                f"{node.describe()}: computed address {address!r} is not a "
                f"memory-location name"
            )
        if address not in self.init_nodes:
            raise ExecutionError(
                f"{node.describe()}: address {address!r} names an unknown location"
            )
        node.addr = address

    def _try_resolve_address(self, node: Node) -> bool:
        """Fill in ``node.addr`` once the address operand is available."""
        if node.addr is not None or not node.is_memory:
            return False
        value = self.operand_value(node, 0)
        if value is _UNAVAILABLE:
            return False
        self._set_address(node, value)
        return True

    def _execute_ready(self) -> bool:
        """Execute all non-Load nodes whose operands are available; resolve
        memory addresses as they become known and process deferred aliasing
        pairs.  Returns True if anything changed."""
        any_progress = False
        progress = True
        while progress:
            progress = False
            for node in self.graph.nodes:
                if node.is_init:
                    continue
                if node.is_memory and node.addr is None:
                    if self._try_resolve_address(node):
                        progress = True
                if node.executed or node.reads_memory:
                    continue  # loads/rmws resolve in step 3
                progress |= self._execute_node(node)
            any_progress |= progress
            if progress:
                self._process_alias_pairs()
                # Branch resolution may have unblocked fetching.
                if self._generate():
                    progress = True
        return any_progress

    def _execute_node(self, node: Node) -> bool:
        instruction = node.instruction
        assert instruction is not None
        if isinstance(instruction, Fence):
            node.executed = True
            return True
        values = self._operand_values(node)
        if values is None:
            return False
        if isinstance(instruction, Compute):
            node.value = alu_eval(instruction.op, values)
            node.executed = True
            return True
        if isinstance(instruction, Store):
            node.stored = values[1]
            node.value = values[1]
            node.writes = True
            node.executed = True
            return True
        if isinstance(instruction, Branch):
            condition = values[0] if values else 1
            node.value = condition
            node.executed = True
            state = self.threads[node.tid]
            if state.waiting_branch == node.nid:
                state.waiting_branch = None
            if instruction.taken(condition):
                state.pc = self.program.threads[node.tid].target_of(instruction)
                state.halted = False
            return True
        raise GraphError(f"cannot execute node {node.describe()}")

    def _process_alias_pairs(self) -> None:
        """Insert deferred same-address edges whose addresses are now known.

        In a speculative execution an insertion that fails (cycle) means
        the speculation went wrong; the CycleError propagates to the
        enumerator, which discards this behavior — the §5.2 rollback."""
        remaining: list[tuple[int, int]] = []
        for earlier, later in self.pending_alias:
            earlier_node = self.graph.node(earlier)
            later_node = self.graph.node(later)
            if earlier_node.addr is None or later_node.addr is None:
                remaining.append((earlier, later))
                continue
            if earlier_node.addr == later_node.addr:
                self.graph.add_edge(earlier, later, EdgeKind.SAME_ADDR)
        self.pending_alias = remaining

    # ------------------------------------------------------------------
    # driver

    def _saturate(self) -> bool:
        """Run generation + execution to a fixpoint.  Returns True if
        anything was generated or executed.  May raise CycleError (a
        deferred alias edge closes a cycle) or EnumerationError (node
        limit)."""
        changed = False
        while True:
            generated = self._generate()
            executed = self._execute_ready()
            if not generated and not executed:
                return changed
            changed = True

    def stabilize(self) -> None:
        """Run generation + execution to a fixpoint, then close Store
        Atomicity.  May raise CycleError/AtomicityViolation (speculation
        failures) or EnumerationError (node limit)."""
        self._saturate()
        close_store_atomicity(self.graph)

    # ------------------------------------------------------------------
    # step 3 support: load resolution

    def unresolved_loads(self) -> list[Node]:
        return [
            node for node in self.graph.nodes if node.reads_memory and not node.executed
        ]

    def eligible_loads(self) -> list[Node]:
        """Unresolved loads that may be resolved now: address known, all
        ⊑-predecessor loads resolved (the paper's eligibility rule), RMW
        operands available, and any model-specific conditions."""
        unresolved = self.unresolved_loads()
        unresolved_mask = 0
        for node in unresolved:
            unresolved_mask |= 1 << node.nid
        anc = self.graph._anc
        eligible = []
        for node in unresolved:
            if node.addr is None:
                continue
            if anc[node.nid] & unresolved_mask:
                continue  # an unresolved load is ⊑-before this one
            if node.op_class is OpClass.RMW and self._operand_values(node) is None:
                continue
            if self.model.store_load_bypass and not self._buffer_searchable(node):
                continue
            eligible.append(node)
        return eligible

    def _buffer_searchable(self, load: Node) -> bool:
        """Bypass models must know the addresses of all program-earlier
        local stores before a load can search the store buffer."""
        state = self.threads[load.tid]
        for nid in state.nodes:
            other = self.graph.node(nid)
            if other.index >= load.index:
                break
            if other.writes_memory and other.addr is None:
                return False
        return True

    def local_earlier_stores(self, load: Node, address: Value) -> list[Node]:
        """Program-earlier same-thread *visible* stores to ``address``
        (for bypass).  Visibility matters: a failed CAS never enters the
        store buffer, so it neither shadows older buffered stores nor
        needs to drain before the load reads memory."""
        state = self.threads[load.tid]
        result = []
        for nid in state.nodes:
            other = self.graph.node(nid)
            if other.index >= load.index:
                break
            if other.is_visible_store and other.addr == address:
                result.append(other)
        return result

    def resolve_load(self, load_nid: int, store_nid: int) -> None:
        """Resolve ``source(L) = S`` (one branch of Load Resolution).

        Adds the observation edge (grey for a TSO-style local forward),
        computes the loaded value, handles the RMW store side, re-closes
        Store Atomicity, and re-stabilizes.  Raises CycleError /
        AtomicityViolation when the choice is inconsistent.

        The closure runs before the generation/execution fixpoint and
        again after it only when the fixpoint changed something: the
        first close leaves the graph closed, and closing a closed graph
        whose nodes and edges have not changed inserts no edge, so the
        skipped close would have been a no-op.
        """
        load = self.graph.node(load_nid)
        store = self.graph.node(store_nid)
        if load.executed:
            raise GraphError(f"load n{load_nid} is already resolved")
        if not store.is_visible_store:
            raise GraphError(f"node n{store_nid} is not a visible store")
        self.resolutions += ((load_nid, store_nid),)

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

        # Dropping this first close changes the recorded dotted edges.
        close_store_atomicity(self.graph)
        if self._saturate():
            close_store_atomicity(self.graph)

    # ------------------------------------------------------------------
    # imposed orderings (§3.3)

    def impose(self, before_nid: int, after_nid: int) -> None:
        """Insert an extra ordering edge, as a conservative real system
        would (§3.3: "it is legal to introduce additional edges in an
        execution graph so long as no cycles are introduced — however,
        doing so rules out possible program behaviors").

        The Store Atomicity closure is re-run, since an imposed edge may
        expose further obligations.  Raises CycleError/AtomicityViolation
        when the imposition is inconsistent with this execution.
        """
        self.graph.add_edge(before_nid, after_nid, EdgeKind.IMPOSED)
        close_store_atomicity(self.graph)

    # ------------------------------------------------------------------
    # status and results

    def completed(self) -> bool:
        """All nodes executed and every thread ran to completion."""
        return all(node.executed for node in self.graph.nodes) and all(
            state.halted for state in self.threads
        )

    def final_registers(self) -> dict[tuple[str, str], Value]:
        """Final architectural register values: (thread name, register) -> value."""
        result: dict[tuple[str, str], Value] = {}
        for tid, state in enumerate(self.threads):
            thread_name = self.program.threads[tid].name
            for register, producer in state.regs.items():
                node = self.graph.node(producer)
                if node.executed and node.value is not None:
                    result[(thread_name, register)] = node.value
        return result

    def memory_finals(self) -> dict[Value, tuple[Value, ...]]:
        """Per address, the values of its ⊑-maximal visible stores — the
        possible final memory contents (ambiguous when stores race)."""
        result: dict[Value, tuple[Value, ...]] = {}
        stores = [node for node in self.graph.nodes if node.is_visible_store]
        for address in {store.addr for store in stores}:
            same = [store for store in stores if store.addr == address]
            maximal = [
                store
                for store in same
                if not any(
                    other.nid != store.nid and self.graph.before(store.nid, other.nid)
                    for other in same
                )
            ]
            result[address] = tuple(sorted((store.stored for store in maximal), key=repr))
        return result

    # ------------------------------------------------------------------
    # canonical keys (deduplication)

    def _identities(self) -> list[tuple[int, int]]:
        """The (tid, index) identity of every node, indexed by nid."""
        return [(node.tid, node.index) for node in self.graph.nodes]

    def _canonical_ranks(self, identities: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
        """Node ids sorted by (tid, index) identity, plus the inverse
        permutation (nid -> canonical rank).  Two executions of the same
        behavior list the same identities in the same canonical order
        even when their nid assignment order differs."""
        order = sorted(range(len(identities)), key=identities.__getitem__)
        rank = [0] * len(identities)
        for position, nid in enumerate(order):
            rank[nid] = position
        return order, rank

    def _bypass_identities(self, identities: list[tuple[int, int]]) -> tuple:
        return tuple(sorted((identities[u], identities[v]) for u, v in self.graph._bypass))

    def _canonical_parts(self) -> tuple[list[int], tuple, tuple, tuple]:
        """What :meth:`state_key` and :meth:`dedup_digest` share: the
        canonical node order, the ⊑ signature in that order, the bypass
        edges and the pending alias pairs."""
        graph = self.graph
        identities = self._identities()
        order, rank = self._canonical_ranks(identities)
        if order == list(range(len(order))):
            # nids already in canonical order: the permutation is the identity.
            anc_sig = tuple(graph._anc)
        else:
            anc_sig = tuple(remap_mask(graph._anc[nid], rank) for nid in order)
        pending = tuple(sorted((identities[u], identities[v]) for u, v in self.pending_alias))
        return order, anc_sig, self._bypass_identities(identities), pending

    def state_key(self) -> tuple:
        """A canonical key for the *full* behavior state.

        Two behaviors with equal keys evolve identically, so the
        enumerator may keep only one.  Node identity is (tid, index) —
        nid assignment order can differ between resolution orders.

        The ⊑ relation is encoded directly from the per-node ancestor
        bitsets, permuted into canonical node order (``anc_sig``) —
        equality over those ints is equality of the relation over
        identities, without materializing the O(n²) pair set.  The key
        contains only tuples/ints/strings/bools/None, so its ``repr`` is
        deterministic across processes (no set iteration order).
        """
        nodes = self.graph.nodes
        order, anc_sig, bypass, pending = self._canonical_parts()
        return (
            tuple(nodes[nid].state(nodes) for nid in order),
            anc_sig,
            bypass,
            tuple(state.state(nodes) for state in self.threads),
            pending,
        )

    def dedup_digest(self) -> bytes:
        """A 16-byte ``blake2b`` digest that is equal for two behaviors
        exactly when their :meth:`state_key` values are (up to hash
        collisions).

        The hashed bytes are each node's :meth:`Node.fragment` in
        canonical order, each thread's :meth:`ThreadState.fragment`,
        then ``repr((anc_sig, bypass, pending))``.  Every piece is the
        ``repr`` of one complete tuple — 9 fields for a node, 4 for a
        thread, 3 for the rest — so the byte string parses back into the
        key's parts: the digest keeps everything the key holds.  Settled
        nodes and halted threads keep their fragments, and copy-on-write
        children share those objects, so a child re-encodes only what
        can still change.  Every piece is a ``repr`` of ints, strings,
        bools and None — never ``hash()`` — so the digest is the same in
        every process, as a checkpoint resumed elsewhere needs.
        """
        nodes = self.graph.nodes
        order, anc_sig, bypass, pending = self._canonical_parts()
        pieces = [nodes[nid].key_fragment or nodes[nid].fragment(nodes) for nid in order]
        pieces += [state.key_fragment or state.fragment(nodes) for state in self.threads]
        digest = hashlib.blake2b(b"".join(pieces), digest_size=_DIGEST_SIZE)
        digest.update(repr((anc_sig, bypass, pending)).encode())
        return digest.digest()

    def loadstore_key(self) -> tuple:
        """The paper's Load–Store-graph comparison key (§4.1): memory
        operations only, with the ⊑ relation projected onto them (as
        canonical-rank ancestor bitsets, like :meth:`state_key`)."""
        graph = self.graph
        nodes = graph.nodes
        identities = self._identities()
        order, _ = self._canonical_ranks(identities)
        memory_order = [nid for nid in order if nodes[nid].is_memory]
        if len(memory_order) == len(nodes) and order == list(range(len(order))):
            # Every node is a memory operation and the nids are already in
            # canonical order: the projection and the permutation are both
            # the identity.
            projected = tuple(graph._anc)
        else:
            memory_mask = 0
            memory_rank = [0] * len(nodes)
            for position, nid in enumerate(memory_order):
                memory_mask |= 1 << nid
                memory_rank[nid] = position
            projected = tuple(
                remap_mask(graph._anc[nid] & memory_mask, memory_rank)
                for nid in memory_order
            )
        descriptors = tuple(
            (
                node.tid,
                node.index,
                node.op_class._value_,  # .value, minus the enum property
                node.addr,
                node.value if node.reads_memory else None,
                node.stored if node.writes else None,
                identities[node.source] if node.source is not None else None,
            )
            for node in (nodes[nid] for nid in memory_order)
        )
        return (descriptors, projected, self._bypass_identities(identities))

    def describe(self) -> str:
        lines = [f"Execution of {self.program.name!r} under {self.model.name}:"]
        for node in self.graph.nodes:
            lines.append(f"  {node.describe()}")
        lines.append("  " + ("completed" if self.completed() else "in progress"))
        return "\n".join(lines)
