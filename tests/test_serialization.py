"""Tests for serializability: witness search and the declarative ⊑.

The key theorem exercised here: **a memory model with Store Atomicity is
serializable** — every execution the enumerator produces has a witness
total order — and the closure's ⊑ agrees with "before in every
serialization" on the paper's figure examples.
"""

import pytest

from repro.errors import SerializationError
from repro.core.enumerate import enumerate_behaviors
from repro.core.serialization import (
    all_serializations,
    always_before_pairs,
    find_serialization,
    is_serializable,
    require_serializable,
)
from repro.isa.dsl import ProgramBuilder
from repro.models.registry import get_model



def _check_witness(execution, witness):
    """Replay the witness and assert all three serialization conditions."""
    graph = execution.graph
    position = {nid: i for i, nid in enumerate(witness)}
    memory = {}
    for nid in witness:
        node = graph.node(nid)
        for ancestor in graph.ancestors(nid):
            if graph.node(ancestor).is_memory:
                assert position[ancestor] < position[nid], "condition 1 violated"
        if node.reads_memory:
            assert memory[node.addr] == node.source, "conditions 2/3 violated"
        if node.is_visible_store:
            memory[node.addr] = node.nid


class TestWitnessSearch:
    @pytest.mark.parametrize("model_name", ["sc", "weak", "pso", "weak-corr"])
    def test_every_enumerated_execution_serializable(self, sb_program, model_name):
        from repro.experiments.fig5 import build_program

        for program in (sb_program, build_program()):
            result = enumerate_behaviors(program, get_model(model_name))
            assert result.executions
            for execution in result.executions:
                witness = find_serialization(execution)
                assert witness is not None
                _check_witness(execution, witness)

    def test_mp_executions_serializable(self, mp_program, weak):
        for execution in enumerate_behaviors(mp_program, weak).executions:
            require_serializable(execution)

    def test_tso_bypass_execution_not_serializable(self):
        """The Figure 10 execution violates memory atomicity: no witness
        exists unless bypassed loads are exempted."""
        from repro.experiments.fig1011 import PAPER_OUTCOME, build_program

        result = enumerate_behaviors(build_program(), get_model("tso"))
        pictured = [
            e for e in result.executions
            if frozenset(e.final_registers().items()) == PAPER_OUTCOME
        ]
        assert pictured
        for execution in pictured:
            assert not is_serializable(execution)
            assert is_serializable(execution, forwarded_ok=True)

    def test_require_serializable_raises(self):
        from repro.experiments.fig1011 import PAPER_OUTCOME, build_program

        result = enumerate_behaviors(build_program(), get_model("tso"))
        pictured = [
            e for e in result.executions
            if frozenset(e.final_registers().items()) == PAPER_OUTCOME
        ]
        with pytest.raises(SerializationError):
            require_serializable(pictured[0])


class TestAllSerializations:
    def test_single_thread_has_one_order(self):
        builder = ProgramBuilder("line")
        t = builder.thread("T")
        t.store("x", 1)
        t.load("r1", "x")
        (execution,) = enumerate_behaviors(builder.build(), get_model("sc")).executions
        orders = all_serializations(execution)
        assert len(orders) == 1

    def test_independent_stores_commute(self):
        builder = ProgramBuilder("two")
        builder.thread("A").store("x", 1)
        builder.thread("B").store("y", 1)
        (execution,) = enumerate_behaviors(builder.build(), get_model("sc")).executions
        orders = all_serializations(execution)
        # the two thread stores commute; init stores also commute with each
        # other but stay before everything.
        assert len(orders) >= 2

    def test_declarative_before_subsumes_closure(self, sb_program, weak):
        """Soundness: every ⊑ edge holds in every serialization."""
        for execution in enumerate_behaviors(sb_program, weak).executions:
            declarative = always_before_pairs(execution)
            memory_nids = {
                node.nid for node in execution.graph.nodes if node.is_memory
            }
            for u in memory_nids:
                for v in memory_nids:
                    if u != v and execution.graph.before(u, v):
                        assert (u, v) in declarative

    def test_closure_complete_on_figure3(self):
        """Completeness on the paper's Figure 3: pairs ordered in every
        serialization are exactly the ⊑ pairs."""
        from repro.experiments.fig3 import build_program

        result = enumerate_behaviors(build_program(), get_model("weak"))
        for execution in result.executions[:4]:
            declarative = always_before_pairs(execution)
            computed = {
                (u, v)
                for (u, v) in declarative
                if execution.graph.before(u, v)
            }
            assert computed == declarative
