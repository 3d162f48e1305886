"""Forward dataflow analyses over mini-ISA programs.

This is the precision layer under the static delay-set analyzer
(:mod:`repro.analysis.static.conflict`) and the solver encoding
(:mod:`repro.analysis.solver.encode`): per-thread CFGs
(:mod:`repro.analysis.static.cfg`), reaching definitions, constant
propagation through ``Compute``, and an address analysis that assigns
every memory access a *value set* of addresses it may touch.  From those
sets, pairs of accesses get a must-alias / may-alias / must-not-alias
verdict.

Addresses flow through memory: a register-indirect access reads its
address from a location, so the analysis runs a whole-program fixpoint —
per-location value sets (initial value plus everything any store may
write there, flow-insensitive across threads, hence sound under *any*
reordering the models permit) alternate with flow-sensitive per-thread
passes until stable.  Value sets are widened to TOP (``None``) beyond
:data:`MAX_VALUES` members.

Threads with loops (CAS spinlocks) have no static instruction bound;
their facts degrade to the conservative PR-2 story — every access may
execute, register-computed addresses stay unknown — and
:attr:`ThreadFacts.analyzable` is False.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, TypeAlias

from repro.analysis.static.cfg import EXIT, ThreadCFG, build_cfg
from repro.errors import ExecutionError
from repro.isa.instructions import (
    Branch,
    Compute,
    Load,
    OpClass,
    Rmw,
    RmwKind,
    Store,
    alu_eval,
)
from repro.isa.operands import Const, Operand, Reg, Value
from repro.isa.program import Program, Thread

#: Pseudo definition index for "register still holds its initial 0".
ENTRY_DEF = -1

#: Value sets wider than this widen to TOP (``None`` = any value).
MAX_VALUES = 16

#: Cap on cartesian products when folding ALU ops over value sets.
_MAX_PRODUCT = 256

#: Safety bound on the cross-thread location-value fixpoint.
_MAX_ROUNDS = 32

ValueSet: TypeAlias = Optional[frozenset]


# ---------------------------------------------------------------------------
# shared static-access collection (used by isa.lint and conflict)


@dataclass(frozen=True)
class MemoryAccessSite:
    """One static memory instruction, conservatively collected: ``location``
    is the constant address, or None when register-computed."""

    thread: str
    tid: int
    index: int
    kind: str  #: "R", "W", or "RW"
    location: str | None


def access_kind(op_class: OpClass) -> str | None:
    """The R/W/RW kind of an instruction class, or None for non-memory."""
    if not op_class.is_memory():
        return None
    if op_class is OpClass.RMW:
        return "RW"
    return "W" if op_class.writes_memory() else "R"


def static_location(instruction) -> str | None:
    """The constant address of a memory instruction, if it has one."""
    addr = instruction.addr_operand()
    if isinstance(addr, Const) and isinstance(addr.value, str):
        return addr.value
    return None


def collect_memory_accesses(program: Program) -> tuple[MemoryAccessSite, ...]:
    """Every static memory access in the program, in (thread, index)
    order — the shared helper behind ``isa.lint`` location checks and
    ``conflict.collect_accesses``."""
    sites = []
    for tid, thread in enumerate(program.threads):
        for index, instruction in enumerate(thread.code):
            kind = access_kind(instruction.op_class)
            if kind is None:
                continue
            sites.append(
                MemoryAccessSite(
                    thread.name, tid, index, kind, static_location(instruction)
                )
            )
    return tuple(sites)


# ---------------------------------------------------------------------------
# value-set arithmetic


def join_values(a: ValueSet, b: ValueSet) -> ValueSet:
    if a is None or b is None:
        return None
    union = a | b
    return None if len(union) > MAX_VALUES else union


def _eval_alu(op: str, arg_sets: list[ValueSet]) -> ValueSet:
    if any(s is None for s in arg_sets):
        return None
    if not arg_sets:
        return None
    total = 1
    for s in arg_sets:
        total *= max(len(s), 1)
        if total > _MAX_PRODUCT:
            return None
    results: set[Value] = set()
    for combo in itertools.product(*arg_sets):
        try:
            results.add(alu_eval(op, combo))
        except ExecutionError:
            return None
    return None if len(results) > MAX_VALUES else frozenset(results)


# ---------------------------------------------------------------------------
# per-access / per-thread / per-program facts


@dataclass(frozen=True)
class AccessFacts:
    """What the dataflow pass knows about one static memory access."""

    index: int
    kind: str  #: "R", "W", or "RW"
    addresses: "frozenset[Value] | None"  #: possible addresses (None = any)
    stored_values: "frozenset[Value] | None"  #: writes only (None = any)
    may_execute: bool
    must_execute: bool

    @property
    def exact(self) -> bool:
        """A single certain address on an unconditionally-executed access."""
        return (
            self.must_execute
            and self.addresses is not None
            and len(self.addresses) == 1
        )


def may_alias(first: ValueSet, second: ValueSet) -> bool:
    """May two address sets meet?  ``None`` (unknown) meets everything."""
    return first is None or second is None or not first.isdisjoint(second)


def must_alias(first: ValueSet, second: ValueSet) -> bool:
    """Are both address sets the same single address?"""
    return first is not None and len(first) == 1 and first == second


@dataclass(frozen=True)
class ThreadFacts:
    """Dataflow results for one thread.

    When ``analyzable`` is False (the CFG has loops) only ``accesses``
    is populated — conservatively — and the reaching/aliasing maps are
    empty; consumers must fall back to their PR-2 behavior.
    """

    name: str
    tid: int
    analyzable: bool
    cfg: ThreadCFG
    accesses: "dict[int, AccessFacts]"
    #: (use index, register) -> def indices reaching the use (ENTRY_DEF = 0-init).
    reaching: "dict[tuple[int, str], frozenset[int]]"
    #: (writer index, reader index) pairs where the writer is the *unique*
    #: definition reaching the reader — definite register dependencies.
    definite_deps: frozenset[tuple[int, int]]
    #: statically unreachable instruction indices (dead branch arms).
    dead: frozenset[int]
    #: (index, register) uses that may read the initial 0 on some live path,
    #: or None when unknown (loops).
    maybe_uninit: "frozenset[tuple[int, str]] | None"

    def unique_def(self, index: int, register: str) -> int | None:
        """The single real definition reaching this use, if there is one."""
        defs = self.reaching.get((index, register))
        if defs is not None and len(defs) == 1:
            (only,) = defs
            if only != ENTRY_DEF:
                return only
        return None


@dataclass
class StaticFacts:
    """Whole-program dataflow facts, shared by the delay-set analyzer,
    the linter, and the solver encoding."""

    program: Program
    threads: tuple[ThreadFacts, ...]
    #: address -> values any execution may ever observe there (None = any).
    locations: "dict[Value, frozenset[Value] | None]"
    analyzable: bool  #: every thread analyzable (no loops)

    # -- lookups -------------------------------------------------------

    def thread(self, tid: int) -> ThreadFacts:
        return self.threads[tid]

    def by_name(self, name: str) -> ThreadFacts:
        for facts in self.threads:
            if facts.name == name:
                return facts
        raise KeyError(name)

    def access(self, tid: int, index: int) -> AccessFacts | None:
        return self.threads[tid].accesses.get(index)

    def address_set(self, tid: int, index: int) -> "frozenset[Value] | None":
        access = self.access(tid, index)
        return None if access is None else access.addresses

    def is_dead(self, tid: int, index: int) -> bool:
        return index in self.threads[tid].dead


# ---------------------------------------------------------------------------
# the per-thread pass


def _operand_set(
    operand: Operand | None,
    env: "dict[str, frozenset[Value] | None]",
) -> ValueSet:
    if operand is None:
        return None
    if isinstance(operand, Const):
        return frozenset({operand.value})
    return env.get(operand.name, frozenset({0}))


def _load_result(
    addresses: ValueSet,
    locvals: "dict[Value, frozenset[Value] | None]",
    wildcard_store: bool,
) -> ValueSet:
    """Values a load from any of ``addresses`` may observe."""
    if addresses is None or wildcard_store:
        return None
    result: ValueSet = frozenset()
    for address in addresses:
        result = join_values(result, locvals.get(address, frozenset()))
        if result is None:
            break
    return result


@dataclass
class _ThreadPass:
    """Mutable scratch for one thread's flow-sensitive pass."""

    accesses: "dict[int, AccessFacts]" = field(default_factory=dict)
    reaching: "dict[tuple[int, str], frozenset[int]]" = field(default_factory=dict)
    branch_sets: "dict[int, frozenset[Value] | None]" = field(default_factory=dict)
    live_edges: frozenset = frozenset()
    live_blocks: frozenset = frozenset()


def _degraded_facts(thread: Thread, tid: int, cfg: ThreadCFG) -> ThreadFacts:
    """Loop fallback: every access may execute, register addresses are
    unknown — exactly the PR-2 conservative story."""
    accesses = {}
    for index, instruction in enumerate(thread.code):
        kind = access_kind(instruction.op_class)
        if kind is None:
            continue
        location = static_location(instruction)
        accesses[index] = AccessFacts(
            index=index,
            kind=kind,
            addresses=frozenset({location}) if location is not None else None,
            stored_values=None,
            may_execute=True,
            must_execute=False,
        )
    return ThreadFacts(
        name=thread.name,
        tid=tid,
        analyzable=False,
        cfg=cfg,
        accesses=accesses,
        reaching={},
        definite_deps=frozenset(),
        dead=frozenset(),
        maybe_uninit=None,
    )


def _run_thread_pass(
    thread: Thread,
    cfg: ThreadCFG,
    locvals: "dict[Value, frozenset[Value] | None]",
    wildcard_store: bool,
) -> _ThreadPass:
    """One flow-sensitive pass (constant propagation + reaching defs)
    over an acyclic CFG, iterating dead-arm discovery to a fixpoint."""
    result = _ThreadPass()
    code = thread.code
    rpo = cfg.reverse_postorder()
    all_edges = cfg.edges()
    live_edges = all_edges

    preds: dict[int, list[int]] = {block.bid: [] for block in cfg.blocks}
    for bid, succ in all_edges:
        if succ != EXIT:
            preds[succ].append(bid)

    for _ in range(len(cfg.blocks) + 2):
        live_blocks = cfg.live_blocks(live_edges)
        out_env: dict[int, dict] = {}
        out_reach: dict[int, dict] = {}
        result.accesses.clear()
        result.reaching.clear()
        result.branch_sets.clear()

        for bid in rpo:
            if bid not in live_blocks:
                continue
            env: dict[str, ValueSet] = {}
            reach: dict[str, frozenset[int]] = {}
            live_preds = [
                p for p in preds[bid] if p in live_blocks and (p, bid) in live_edges
            ]
            for position, pred in enumerate(live_preds):
                pred_env = out_env[pred]
                pred_reach = out_reach[pred]
                if position == 0:
                    env = dict(pred_env)
                    reach = dict(pred_reach)
                    continue
                for name in set(env) | set(pred_env):
                    env[name] = join_values(
                        env.get(name, frozenset({0})),
                        pred_env.get(name, frozenset({0})),
                    )
                for name in set(reach) | set(pred_reach):
                    reach[name] = reach.get(
                        name, frozenset({ENTRY_DEF})
                    ) | pred_reach.get(name, frozenset({ENTRY_DEF}))

            for index in cfg.blocks[bid].indices():
                instruction = code[index]
                for register in instruction.sources():
                    result.reaching[(index, register.name)] = reach.get(
                        register.name, frozenset({ENTRY_DEF})
                    )
                _transfer(instruction, index, env, reach, locvals, wildcard_store, result)

            out_env[bid] = env
            out_reach[bid] = reach

        new_live = _prune_dead_arms(cfg, result.branch_sets, live_edges)
        if new_live == live_edges:
            result.live_edges = live_edges
            result.live_blocks = live_blocks
            return result
        live_edges = new_live

    result.live_edges = live_edges
    result.live_blocks = cfg.live_blocks(live_edges)
    return result


def _transfer(
    instruction,
    index: int,
    env: "dict[str, ValueSet]",
    reach: "dict[str, frozenset[int]]",
    locvals: "dict[Value, frozenset[Value] | None]",
    wildcard_store: bool,
    result: _ThreadPass,
) -> None:
    dst_values: ValueSet = None
    if isinstance(instruction, Compute):
        dst_values = _eval_alu(
            instruction.op, [_operand_set(arg, env) for arg in instruction.args]
        )
    elif isinstance(instruction, Load):
        addresses = _operand_set(instruction.addr, env)
        dst_values = _load_result(addresses, locvals, wildcard_store)
        result.accesses[index] = AccessFacts(index, "R", addresses, None, True, True)
    elif isinstance(instruction, Store):
        addresses = _operand_set(instruction.addr, env)
        stored = _operand_set(instruction.value, env)
        result.accesses[index] = AccessFacts(index, "W", addresses, stored, True, True)
    elif isinstance(instruction, Rmw):
        addresses = _operand_set(instruction.addr, env)
        old = _load_result(addresses, locvals, wildcard_store)
        dst_values = old
        if instruction.kind is RmwKind.EXCHANGE:
            stored = _operand_set(instruction.args[0], env)
        elif instruction.kind is RmwKind.CAS:
            stored = _operand_set(instruction.args[1], env)
        else:  # FETCH_ADD
            stored = _eval_alu("add", [old, _operand_set(instruction.args[0], env)])
        result.accesses[index] = AccessFacts(index, "RW", addresses, stored, True, True)
    elif isinstance(instruction, Branch):
        if instruction.cond is not None:
            result.branch_sets[index] = _operand_set(instruction.cond, env)

    destination = instruction.dest()
    if destination is not None:
        env[destination.name] = dst_values
        reach[destination.name] = frozenset({index})


def _prune_dead_arms(
    cfg: ThreadCFG,
    branch_sets: "dict[int, frozenset[Value] | None]",
    live_edges: frozenset,
) -> frozenset:
    """Drop branch edges whose direction the condition value set rules
    out.  The dead set only grows, so the caller's loop terminates."""
    dead: set[tuple[int, int]] = set()
    for block in cfg.blocks:
        branch = cfg.terminator(block.bid)
        if branch is None or branch.cond is None:
            continue
        values = branch_sets.get(block.end - 1)
        if values is None:
            continue
        taken_possible = any(branch.taken(v) for v in values)
        fall_possible = any(not branch.taken(v) for v in values)
        taken_to = cfg.taken_succ[block.bid]
        fall_to = cfg.fall_succ[block.bid]
        if taken_to == fall_to:
            continue  # both arms land in the same place
        if not taken_possible and taken_to is not None:
            dead.add((block.bid, taken_to))
        if not fall_possible and fall_to is not None:
            dead.add((block.bid, fall_to))
    return frozenset(edge for edge in live_edges if edge not in dead)


def _finalize_thread(
    thread: Thread, tid: int, cfg: ThreadCFG, scratch: _ThreadPass
) -> ThreadFacts:
    live_instructions = {
        index
        for bid in scratch.live_blocks
        for index in cfg.blocks[bid].indices()
    }
    dead = frozenset(range(len(thread.code))) - live_instructions
    unavoidable = cfg.unavoidable_blocks(scratch.live_edges)
    must_instructions = {
        index for bid in unavoidable for index in cfg.blocks[bid].indices()
    }

    accesses = {
        index: AccessFacts(
            index=facts.index,
            kind=facts.kind,
            addresses=facts.addresses,
            stored_values=facts.stored_values,
            may_execute=True,
            must_execute=index in must_instructions,
        )
        for index, facts in scratch.accesses.items()
        if index in live_instructions
    }

    reaching = {
        key: defs for key, defs in scratch.reaching.items() if key[0] in live_instructions
    }
    definite = frozenset(
        (next(iter(defs)), index)
        for (index, _register), defs in reaching.items()
        if len(defs) == 1 and ENTRY_DEF not in defs
    )
    maybe_uninit = frozenset(
        (index, register)
        for (index, register), defs in reaching.items()
        if ENTRY_DEF in defs
    )
    return ThreadFacts(
        name=thread.name,
        tid=tid,
        analyzable=True,
        cfg=cfg,
        accesses=accesses,
        reaching=reaching,
        definite_deps=definite,
        dead=dead,
        maybe_uninit=maybe_uninit,
    )


# ---------------------------------------------------------------------------
# the whole-program fixpoint


def compute_static_facts(program: Program) -> StaticFacts:
    """Run the cross-thread dataflow fixpoint over ``program``.

    Location value sets start at the initial values and grow with every
    store any thread may perform; per-thread constant propagation reruns
    until the location sets stabilize.  Model-independent: the facts are
    sound under any reordering because the location sets are
    flow-insensitive across threads.
    """
    cfgs = [build_cfg(thread) for thread in program.threads]
    locvals: dict[Value, ValueSet] = {
        location: frozenset({program.initial_value(location)})
        for location in program.locations()
    }
    wildcard_store = False
    passes: list[_ThreadPass | None] = [None] * len(program.threads)

    for _ in range(_MAX_ROUNDS):
        new_locvals: dict[Value, ValueSet] = {
            location: frozenset({program.initial_value(location)})
            for location in program.locations()
        }
        new_wildcard = False
        for tid, thread in enumerate(program.threads):
            if cfgs[tid].has_loops:
                passes[tid] = None
                # Conservative store contribution from the degraded thread.
                for index, instruction in enumerate(thread.code):
                    if not instruction.op_class.writes_memory():
                        continue
                    location = static_location(instruction)
                    if location is None:
                        new_wildcard = True
                    else:
                        new_locvals[location] = None
                continue
            scratch = _run_thread_pass(thread, cfgs[tid], locvals, wildcard_store)
            passes[tid] = scratch
            live = {
                index
                for bid in scratch.live_blocks
                for index in cfgs[tid].blocks[bid].indices()
            }
            for index, access in scratch.accesses.items():
                if "W" not in access.kind or index not in live:
                    continue
                if access.addresses is None:
                    new_wildcard = True
                    continue
                for address in access.addresses:
                    new_locvals[address] = join_values(
                        new_locvals.get(address, frozenset()), access.stored_values
                    )
        if new_wildcard:
            new_locvals = {location: None for location in new_locvals}
        if new_locvals == locvals and new_wildcard == wildcard_store:
            break
        locvals = new_locvals
        wildcard_store = new_wildcard
    else:
        # No convergence within the bound (should not happen: the lattice
        # is finite) — drop to TOP everywhere.
        locvals = {location: None for location in locvals}
        wildcard_store = True
        passes = [None] * len(program.threads)

    threads = []
    for tid, thread in enumerate(program.threads):
        scratch = passes[tid]
        if scratch is None:
            threads.append(_degraded_facts(thread, tid, cfgs[tid]))
        else:
            threads.append(_finalize_thread(thread, tid, cfgs[tid], scratch))

    return StaticFacts(
        program=program,
        threads=tuple(threads),
        locations=locvals,
        analyzable=all(facts.analyzable for facts in threads),
    )


def describe_facts(facts: StaticFacts) -> str:
    """A human-readable dump for the ``repro dataflow`` CLI command."""

    def fmt_values(values: Iterable[Value] | None) -> str:
        if values is None:
            return "⊤"
        inner = ", ".join(repr(v) for v in sorted(values, key=repr))
        return "{" + inner + "}"

    lines = [f"program {facts.program.name!r}:"]
    for thread in facts.threads:
        header = f"  thread {thread.name}:"
        if not thread.analyzable:
            lines.append(header + " CFG has loops — conservative facts only")
            continue
        cfg = thread.cfg
        lines.append(
            header
            + f" {len(cfg.blocks)} block(s), "
            + f"{len(thread.accesses)} live memory access(es)"
        )
        for index in sorted(thread.accesses):
            access = thread.accesses[index]
            flags = []
            if access.must_execute:
                flags.append("must-execute")
            elif access.may_execute:
                flags.append("may-execute")
            if access.exact:
                flags.append("exact")
            lines.append(
                f"    [{index}] {access.kind} addr={fmt_values(access.addresses)}"
                + (
                    f" stores={fmt_values(access.stored_values)}"
                    if "W" in access.kind
                    else ""
                )
                + f" ({', '.join(flags)})"
            )
        if thread.dead:
            lines.append(
                "    dead instructions: "
                + ", ".join(str(i) for i in sorted(thread.dead))
            )
        if thread.definite_deps:
            deps = ", ".join(
                f"{w}->{r}" for w, r in sorted(thread.definite_deps)
            )
            lines.append(f"    definite register deps: {deps}")
    lines.append("  location value sets:")
    for location in sorted(facts.locations, key=repr):
        lines.append(f"    {location!r}: {fmt_values(facts.locations[location])}")
    return "\n".join(lines)
