"""``explain_forbidden`` — certify an outcome impossible, minimally.

Given a litmus test and a model, decide whether the test's outcome
expression is reachable, and when it is *not*, say why in two forms:

* a **minimal violated-axiom core** — the smallest set of axiom groups
  (individual program-order facts, the source-edge rule, the store
  buffer drain, atomicity rules (a)/(b), the outcome restriction) whose
  conjunction is already unsatisfiable.  Every group is guarded by a
  selector variable (see :mod:`repro.analysis.solver.encode`); solving
  under assumptions yields a failed-assumption core that is then
  deletion-minimized.
* a **cycle witness** — when the outcome pins each constrained load to
  a unique source, the forced edges (program order, source, drain,
  atomicity closure) are built concretely and the cycle among them is
  rendered edge by edge.

Soundness is inherited from the relaxation direction of the encoding:
the CNF admits *every* real behavior, so UNSAT under the outcome
restriction proves the outcome unreachable outright.  The converse
(SAT) is checked by exact replay; relaxation artifacts are blocked and
the loop continues, so a "reachable" answer always carries a concrete
witness execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.solver.behaviors import _interrupt, _materialize, _replay_stack, _step
from repro.analysis.solver.encode import (
    ClauseGroup,
    Encoding,
    _definite_writer,
    _definitely_same,
    _short,
    encode_program,
)
from repro.core.enumerate import CancellationToken, EnumerationLimits, EnumerationStats
from repro.core.execution import Execution
from repro.core.node import Node
from repro.isa.instructions import OpClass
from repro.isa.operands import Value
from repro.litmus.conditions import And, Expr, RegisterAtom
from repro.litmus.finalstate import realizable_final_memory
from repro.litmus.test import LitmusTest
from repro.models import get_model
from repro.models.base import MemoryModel

GROUP_OUTCOME = "outcome"


@dataclass
class ForbiddenExplanation:
    """The answer, in both machine and human form."""

    test: LitmusTest
    model: MemoryModel
    forbidden: bool  #: True = the outcome expression is unreachable
    core: list[ClauseGroup] = field(default_factory=list)  #: minimal axiom set
    cycle: list[str] | None = None  #: rendered forced-edge cycle, if determined
    witness: Execution | None = None  #: a reaching execution (when not forbidden)
    blocked: int = 0  #: relaxation artifacts rejected by replay on the way
    exhausted: bool = False  #: forbidden proven by exhausting assignments only

    def render(self) -> str:
        lines = [
            f"{self.test.name} under {self.model.name}: outcome "
            f"{self.test.condition.expr} is "
            + ("FORBIDDEN" if self.forbidden else "reachable")
        ]
        if not self.forbidden:
            if self.witness is not None:
                lines.append("witness execution:")
                for row in self.witness.describe().splitlines()[1:]:
                    lines.append(row)
            return "\n".join(lines)
        if self.exhausted:
            lines.append(
                "(every reads-from assignment was enumerated and rejected "
                "by exact replay — no compact axiom core applies)"
            )
            return "\n".join(lines)
        lines.append(f"minimal violated-axiom core ({len(self.core)} axioms):")
        for group in self.core:
            lines.append(f"  - {group.description}")
        if self.cycle:
            lines.append("the forced orderings close a cycle:")
            for edge in self.cycle:
                lines.append(f"    {edge}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# outcome restriction


def _conjunctive_atoms(expr: Expr) -> list[RegisterAtom] | None:
    """The positive register atoms of a pure-conjunction expression, or
    ``None`` when the expression has any other shape (the expression is
    then left unrestricted and spurious models are filtered by replay)."""
    if isinstance(expr, RegisterAtom):
        return [expr]
    if isinstance(expr, And):
        collected: list[RegisterAtom] = []
        for operand in expr.operands:
            atoms = _conjunctive_atoms(operand)
            if atoms is None:
                return None
            collected.extend(atoms)
        return collected
    return None


def _store_may_produce(encoding: Encoding, store: Node, value: Value) -> bool:
    """May ``store`` write ``value``?  Init stores and constant-operand
    stores answer exactly; anything statically unknown answers yes."""
    if store.is_init:
        return store.stored == value
    facts = encoding.facts.access(store.tid, store.static_index)
    if facts is None or facts.stored_values is None:
        return True
    return value in facts.stored_values


def _restrict_outcome(
    encoding: Encoding, atoms: list[RegisterAtom], group: ClauseGroup
) -> dict[int, list[int]]:
    """Add clauses (under ``group``'s selector) confining each atom's
    last register writer.  Returns the per-load allowed candidate sets
    (used afterwards to pin unique sources for the cycle witness)."""
    solver = encoding.solver
    selector = group.selector
    assert selector is not None, "the outcome group is always guarded"
    thread_index = {
        thread.name: tid for tid, thread in enumerate(encoding.program.threads)
    }
    allowed_map: dict[int, list[int]] = {}
    for atom in atoms:
        tid = thread_index.get(atom.thread)
        if tid is None:
            continue
        producer = encoding.base.threads[tid].regs.get(atom.register)
        if producer is None:
            continue
        node = encoding.base.graph.node(producer)
        if node.reads_memory:
            allowed = [
                store_nid
                for store_nid in encoding.candidates[node.nid]
                if _store_may_produce(
                    encoding, encoding.base.graph.node(store_nid), atom.value
                )
            ]
            allowed_map[node.nid] = allowed
            lits = [encoding.rf_var[(node.nid, s)] for s in allowed]
            if node.nid in encoding.ext_var:
                lits.append(encoding.ext_var[node.nid])
            solver.add_clause([-selector] + lits)
        elif node.executed and node.value is not None and node.value != atom.value:
            # A constant register provably differs from the required
            # value: the outcome restriction alone is unsatisfiable.
            solver.add_clause([-selector])
    return allowed_map


# ----------------------------------------------------------------------
# cycle witness


def _forced_cycle(
    encoding: Encoding, pinned: dict[int, int]
) -> list[str] | None:
    """Best effort: close the *forced* edges (skeleton order, pinned
    sources, buffer drain, atomicity rules over pinned loads) and render
    a cycle among them, if one exists."""
    graph = encoding.base.graph
    model = encoding.model
    edges: dict[tuple[int, int], str] = {}

    def put(u: int, v: int, label: str) -> bool:
        if (u, v) in edges:
            return False
        edges[(u, v)] = label
        return True

    for a in encoding.memory_nodes:
        for b in encoding.memory_nodes:
            if a.nid != b.nid and graph.before(a.nid, b.nid):
                path = graph.find_path(a.nid, b.nid)
                kinds = ", ".join(
                    dict.fromkeys(kind.pretty() for _, _, kind in (path or []))
                )
                put(a.nid, b.nid, kinds or "program order")

    def forwardable(load: Node, store: Node) -> bool:
        return (
            model.store_load_bypass
            and load.op_class is OpClass.LOAD
            and store.tid == load.tid
            and store.index < load.index
        )

    stores = [n for n in encoding.memory_nodes if n.writes_memory]
    for load_nid, src_nid in pinned.items():
        load, src = graph.node(load_nid), graph.node(src_nid)
        if not forwardable(load, src):
            put(src_nid, load_nid, "source (the load reads this store)")
            if model.store_load_bypass and load.op_class is OpClass.LOAD:
                for local in stores:
                    if (
                        local.tid == load.tid
                        and local.index < load.index
                        and local.nid != src_nid
                        and _definite_writer(local)
                        and _definitely_same(local, load, encoding)
                    ):
                        put(local.nid, load_nid, "store-buffer drain")

    # Atomicity fixpoint over the forced edges.
    for _ in range(2 * len(encoding.memory_nodes) ** 2):
        reach = _reachability(edges, [n.nid for n in encoding.memory_nodes])
        changed = False
        for load_nid, src_nid in pinned.items():
            load = graph.node(load_nid)
            for store in stores:
                if store.nid in (load_nid, src_nid):
                    continue
                if not _definite_writer(store) or not _definitely_same(store, load, encoding):
                    continue
                if (store.nid, load_nid) in reach:
                    changed |= put(
                        store.nid,
                        src_nid,
                        f"atomicity rule (a) via {_short(load)}",
                    )
                if (src_nid, store.nid) in reach:
                    changed |= put(
                        load_nid,
                        store.nid,
                        f"atomicity rule (b) via {_short(load)}",
                    )
        if not changed:
            break

    return _render_cycle(encoding, edges)


def _reachability(
    edges: dict[tuple[int, int], str], nids: list[int]
) -> set[tuple[int, int]]:
    succ: dict[int, set[int]] = {nid: set() for nid in nids}
    for u, v in edges:
        succ.setdefault(u, set()).add(v)
    reach: set[tuple[int, int]] = set()
    for start in nids:
        stack = [start]
        seen: set[int] = set()
        while stack:
            here = stack.pop()
            for there in succ.get(here, ()):
                if there not in seen:
                    seen.add(there)
                    reach.add((start, there))
                    stack.append(there)
    return reach


def _render_cycle(
    encoding: Encoding, edges: dict[tuple[int, int], str]
) -> list[str] | None:
    """Find any directed cycle among ``edges`` and render it."""
    succ: dict[int, list[int]] = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    graph = encoding.base.graph
    color: dict[int, int] = {}
    parent: dict[int, int] = {}

    def visit(start: int) -> list[int] | None:
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = 1
        while stack:
            node, position = stack[-1]
            nexts = succ.get(node, [])
            if position < len(nexts):
                stack[-1] = (node, position + 1)
                there = nexts[position]
                state = color.get(there, 0)
                if state == 0:
                    color[there] = 1
                    parent[there] = node
                    stack.append((there, 0))
                elif state == 1:
                    cycle = [node]
                    walk = node
                    while walk != there:
                        walk = parent[walk]
                        cycle.append(walk)
                    cycle.reverse()
                    return cycle
            else:
                color[node] = 2
                stack.pop()
        return None

    for nid in list(succ):
        if color.get(nid, 0) == 0:
            cycle = visit(nid)
            if cycle is not None:
                rendered = []
                for i, u in enumerate(cycle):
                    v = cycle[(i + 1) % len(cycle)]
                    label = edges[(u, v)]
                    rendered.append(
                        f"{_short(graph.node(u))}  ⊑  {_short(graph.node(v))}"
                        f"   [{label}]"
                    )
                return rendered
    return None


# ----------------------------------------------------------------------
# the driver


def explain_forbidden(
    test: LitmusTest,
    model: MemoryModel | str,
    limits: EnumerationLimits | None = None,
    *,
    token: CancellationToken | None = None,
) -> ForbiddenExplanation:
    """Decide reachability of ``test``'s outcome expression under
    ``model`` and explain the verdict (see the module docstring).

    ``limits`` and ``token`` bound it as they bound ``solve_behaviors``
    (the core's minimization included), but strictly: a spent budget
    raises :class:`~repro.errors.EnumerationError`."""
    start = time.monotonic()
    if isinstance(model, str):
        model = get_model(model)
    if limits is None:
        limits = EnumerationLimits()
    encoding = encode_program(
        test.program,
        model,
        max_nodes_per_thread=limits.max_nodes_per_thread,
        with_selectors=True,
    )
    solver = encoding.solver

    outcome_selector = solver.new_var()
    outcome_group = ClauseGroup(
        GROUP_OUTCOME, f"the outcome requires {test.condition.expr}", outcome_selector
    )
    encoding.groups.append(outcome_group)
    atoms = _conjunctive_atoms(test.condition.expr)
    allowed_map: dict[int, list[int]] = {}
    if atoms is not None:
        allowed_map = _restrict_outcome(encoding, atoms, outcome_group)

    assumptions = encoding.selectors()
    work = EnumerationStats()
    interrupt = _interrupt(encoding, limits, start, token)
    frontiers = _replay_stack(encoding)
    locations = test.condition.locations()
    blocked = 0
    while True:
        _step(encoding, limits, work, start, token)
        if not solver.solve(assumptions, interrupt):
            break
        assignment = encoding.rf_assignment()
        for execution in _materialize(
            encoding, assignment, limits, work, start, token, frontiers
        ):
            registers = execution.final_registers()
            for memory in realizable_final_memory(execution, locations):
                if test.condition.holds_in(registers, memory):
                    return ForbiddenExplanation(
                        test=test,
                        model=model,
                        forbidden=False,
                        witness=execution,
                        blocked=blocked,
                    )
        blocked += 1
        encoding.block(assignment)

    core_literals = solver.core()
    if not core_literals:
        # UNSAT without assumptions: every assignment was enumerated and
        # rejected by replay; there is no compact axiom core.
        return ForbiddenExplanation(
            test=test, model=model, forbidden=True, blocked=blocked, exhausted=True
        )

    # Deletion-minimize the failed-assumption core (to a fixpoint: no
    # single axiom can be dropped without the outcome becoming SAT).
    core = list(core_literals)
    shrinking = True
    while shrinking:
        shrinking = False
        for literal in list(core):
            trial = [other for other in core if other != literal]
            if not solver.solve(trial, interrupt):
                core = solver.core() or trial
                shrinking = True
                break

    groups = [encoding.group_of(selector) for selector in sorted(core)]

    # Pin unique sources for the cycle witness: loads the outcome (or
    # the candidate structure itself) confines to a single store.
    pinned: dict[int, int] = {}
    for load in encoding.loads:
        options = allowed_map.get(load.nid, encoding.candidates[load.nid])
        if len(options) == 1 and load.nid not in encoding.ext_var:
            pinned[load.nid] = options[0]
    cycle = _forced_cycle(encoding, pinned)

    return ForbiddenExplanation(
        test=test,
        model=model,
        forbidden=True,
        core=groups,
        cycle=cycle,
        blocked=blocked,
    )


__all__ = ["ForbiddenExplanation", "explain_forbidden", "GROUP_OUTCOME"]
