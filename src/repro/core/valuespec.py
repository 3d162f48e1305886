"""Value speculation (paper §5's open problem, and Martin et al. [23]).

The paper defers value speculation to future work but frames the
question precisely: speculation is distinguished from reordering by the
possibility of *going wrong*, and a speculative machine is safe iff it
rolls back every execution the non-speculative rules would reject.  The
cited result (Martin, Sorin, Cain, Hill, Lipasti — "Correctly
implementing value prediction…") is that **naive** value prediction
violates Sequential Consistency: dependents execute with a predicted
value, and validating only the value at commit misses the coherence
window in which the prediction was wrong.

This module mechanizes both machines inside the paper's framework:

* **Safe speculation** (``validate=True``): loads may resolve in ANY
  order — pure value prediction, no waiting for predecessor loads — but
  every resolution re-runs the full Store Atomicity closure and
  inconsistent branches are rolled back (discarded).  A theorem the
  test suite checks: this yields exactly the standard behavior set.
  Relaxing §4's resolution-order restriction adds nothing when
  validation is complete — and the restriction loses nothing.

* **Naive speculation** (``validate=False``): the machine binds each
  load to a source and never re-examines it; no ordering obligations
  are tracked beyond program order, data flow, and the observation
  itself.  Completed executions are then *classified*: an execution is
  illegal iff the Store Atomicity closure cannot be satisfied on its
  final observation assignment.  Under the SC table the illegal set is
  non-empty (e.g. message passing's stale read) — Martin et al.'s
  violation reproduced as a graph inconsistency.

Both machines are the enumerator's own search with its three rules
replaced: eligibility, candidates and the resolution step below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.errors import AtomicityViolation, ReproError
from repro.core.atomicity import close_store_atomicity
from repro.core.enumerate import EnumerationLimits, EnumerationStats, _search
from repro.core.execution import Execution
from repro.core.graph import EdgeKind
from repro.core.node import Node
from repro.isa.instructions import OpClass
from repro.isa.program import Program
from repro.models.base import MemoryModel
from repro.models.registry import get_model


def closure_satisfiable(execution: Execution) -> bool:
    """Can the Store Atomicity rules be satisfied on this execution's
    final observation assignment?  (Checked on a scratch copy.)"""
    scratch = execution.graph.copy()
    try:
        close_store_atomicity(scratch)
    except AtomicityViolation:
        return False
    return True


def _value_spec_eligible(execution: Execution) -> list[Node]:
    """Eligibility under value prediction: the address (and RMW operands)
    must be known; predecessor loads need NOT be resolved."""
    eligible = []
    for node in execution.unresolved_loads():
        if node.addr is None:
            continue
        if node.op_class is OpClass.RMW and execution._operand_values(node) is None:
            continue
        eligible.append(node)
    return eligible


def _value_spec_candidates(execution: Execution, load: Node) -> list[Node]:
    """Candidates without §4's condition 1 (prior resolution): any visible
    same-address store not certainly overwritten and not ⊑-after the load."""
    graph = execution.graph
    visible = [
        node
        for node in graph.nodes
        if node.is_visible_store and node.addr == load.addr and node.nid != load.nid
    ]
    result = []
    for store in visible:
        if graph.before(load.nid, store.nid):
            continue  # observing it would order the load after itself
        overwritten = any(
            other.nid != store.nid
            and graph.before(store.nid, other.nid)
            and graph.before(other.nid, load.nid)
            for other in visible
        )
        if not overwritten:
            result.append(store)
    return result


@dataclass
class ValueSpecStats(EnumerationStats):
    """Enumeration counters plus naive-machine bookkeeping."""

    unvalidated: int = 0  #: completed executions whose closure is unsatisfiable


@dataclass
class ValueSpecResult:
    """Behaviors reachable under value speculation.

    In naive mode (``validate=False``), ``executions`` contains BOTH the
    legal behaviors and the machine's illegal ones; use
    :meth:`violating_outcomes` / :meth:`legal_outcomes` to split them.
    """

    program: Program
    model: MemoryModel
    validate: bool
    executions: list[Execution]
    illegal: list[Execution] = field(default_factory=list)
    stats: ValueSpecStats = field(default_factory=ValueSpecStats)

    def register_outcomes(self) -> frozenset[frozenset]:
        return frozenset(
            frozenset(execution.final_registers().items()) for execution in self.executions
        )

    def legal_outcomes(self) -> frozenset[frozenset]:
        illegal_ids = {id(execution) for execution in self.illegal}
        return frozenset(
            frozenset(execution.final_registers().items())
            for execution in self.executions
            if id(execution) not in illegal_ids
        )

    def violating_outcomes(self) -> frozenset[frozenset]:
        """Outcomes only the unvalidated (naive) machine exhibits."""
        return frozenset(
            frozenset(execution.final_registers().items()) for execution in self.illegal
        )

    def __len__(self) -> int:
        return len(self.executions)


def _resolve_speculatively(
    execution: Execution, load_nid: int, store_nid: int, validate: bool
) -> None:
    """Resolve source(L)=S without the standard eligibility guard."""
    load = execution.graph.node(load_nid)
    store = execution.graph.node(store_nid)
    execution.graph.add_edge(store_nid, load_nid, EdgeKind.SOURCE)
    load.source = store_nid
    load.value = store.stored
    load.executed = True
    if load.op_class is OpClass.RMW:
        instruction = load.instruction
        values = execution._operand_values(load)
        assert values is not None
        stored = instruction.stored_value(store.stored, values[1:])
        if stored is not None:
            load.stored = stored
            load.writes = True
    if validate:
        close_store_atomicity(execution.graph)
        execution.stabilize()
    else:
        # The naive machine tracks no ordering obligations: just run the
        # dataflow to a fixpoint.
        while True:
            generated = execution._generate()
            executed = execution._execute_ready()
            if not generated and not executed:
                break


def enumerate_value_speculation(
    program: Program,
    model: MemoryModel | str,
    validate: bool = True,
    limits: EnumerationLimits | None = None,
) -> ValueSpecResult:
    """Enumerate behaviors under value prediction (see module docstring).

    Bypass models are rejected — value prediction is studied on
    store-atomic models, where "legal" has a crisp meaning.
    Every budget in ``limits`` applies; one that runs out raises
    :class:`~repro.errors.EnumerationError`.
    """
    if isinstance(model, str):
        model = get_model(model)
    if model.store_load_bypass:
        raise ReproError("value speculation is defined for store-atomic models only")
    limits = limits or EnumerationLimits()
    stats = ValueSpecStats()

    initial = Execution.initial(program, model, limits.max_nodes_per_thread)
    executions = _search(
        program, model, limits, dedup=True, strict=True, token=None,
        worklist=[initial], seen_states={initial.dedup_digest()}, finished={}, stats=stats,
        eligible=_value_spec_eligible,
        candidates=lambda behavior, load, _stats: _value_spec_candidates(behavior, load),
        resolve=partial(_resolve_speculatively, validate=validate),
    ).executions
    illegal = []
    if not validate:
        illegal = [e for e in executions if not closure_satisfiable(e)]
        stats.unvalidated = len(illegal)
    return ValueSpecResult(program, model, validate, executions, illegal, stats)
