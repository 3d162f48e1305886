"""Unit tests for graph generation and dataflow execution (§4.1)."""

import pytest

from repro.errors import EnumerationError, ExecutionError
from repro.core.execution import Execution, instruction_operands
from repro.core.graph import EdgeKind
from repro.isa.dsl import ProgramBuilder
from repro.isa.instructions import Compute, Load, Store
from repro.isa.operands import Const, Reg
from repro.models.registry import get_model

from tests.conftest import build_branchy, build_loop, build_single_thread


def initial(program, model="weak", max_nodes=64):
    return Execution.initial(program, get_model(model), max_nodes)


class TestInstructionOperands:
    def test_canonical_orders(self):
        assert instruction_operands(Load(Reg("r1"), Const("x"))) == (Const("x"),)
        assert instruction_operands(Store(Const("x"), Reg("r1"))) == (
            Const("x"),
            Reg("r1"),
        )
        compute = Compute(Reg("r1"), "add", (Reg("r2"), Const(3)))
        assert instruction_operands(compute) == (Reg("r2"), Const(3))


class TestInitStores:
    def test_one_per_location_with_values(self, sb_program):
        execution = initial(sb_program)
        assert set(execution.init_nodes) == {"x", "y"}
        for location, nid in execution.init_nodes.items():
            node = execution.graph.node(nid)
            assert node.is_init and node.is_visible_store
            assert node.addr == location and node.stored == 0

    def test_init_precedes_every_thread_node(self, sb_program):
        execution = initial(sb_program)
        for node in execution.graph.nodes:
            if not node.is_init:
                for init_nid in execution.init_nodes.values():
                    assert execution.graph.before(init_nid, node.nid)

    def test_initial_memory_respected(self):
        builder = ProgramBuilder("init")
        builder.init("x", 42)
        builder.thread("T").load("r1", "x")
        execution = initial(builder.build())
        node = execution.graph.node(execution.init_nodes["x"])
        assert node.stored == 42


class TestGeneration:
    def test_straight_line_fully_generated(self, sb_program):
        execution = initial(sb_program)
        # 2 init + 4 instructions
        assert len(execution.graph) == 6

    def test_generation_stops_at_unresolved_branch(self):
        execution = initial(build_branchy())
        # P1: load, branch generated; store + final load NOT yet (branch
        # blocked on the unresolved load).
        p1_nodes = [n for n in execution.graph.nodes if n.tid == 1]
        assert len(p1_nodes) == 2
        assert execution.threads[1].waiting_branch is not None

    def test_branch_resolution_resumes_generation(self):
        execution = initial(build_branchy())
        (load,) = [n for n in execution.eligible_loads() if n.tid == 1]
        flag_store = [
            n for n in execution.graph.nodes if n.tid == 0 and n.writes_memory
        ][0]
        execution.resolve_load(load.nid, flag_store.nid)
        p1_nodes = [n for n in execution.graph.nodes if n.tid == 1]
        # flag=1 -> beqz not taken -> store + load generated
        assert len(p1_nodes) == 4

    def test_node_limit_guards_unbounded_loops(self):
        builder = ProgramBuilder("spin")
        t = builder.thread("T")
        t.label("top")
        t.jmp("top")
        with pytest.raises(EnumerationError):
            initial(builder.build(), max_nodes=8)


class TestDataflow:
    def test_alu_chain_computes(self):
        execution = initial(build_single_thread(), "sc")
        # resolve the first load (x) against the only candidate
        while not execution.completed():
            loads = execution.eligible_loads()
            assert loads, "dataflow stalled"
            from repro.core.candidates import candidate_stores

            load = loads[0]
            (store,) = candidate_stores(execution, load)
            execution.resolve_load(load.nid, store.nid)
        registers = execution.final_registers()
        assert registers[("T", "r1")] == 5
        assert registers[("T", "r2")] == 15
        assert registers[("T", "r3")] == 15

    def test_unwritten_register_reads_zero(self):
        builder = ProgramBuilder("zero")
        builder.thread("T").store("x", Reg("r9"))
        execution = initial(builder.build())
        store_node = [n for n in execution.graph.nodes if not n.is_init][0]
        assert store_node.executed and store_node.stored == 0

    def test_data_edges_recorded(self):
        execution = initial(build_single_thread(), "weak")
        nodes = [n for n in execution.graph.nodes if not n.is_init]
        load_x, add = nodes[1], nodes[2]
        assert execution.graph.edge_kinds(load_x.nid, add.nid) & EdgeKind.DATA

    def test_int_address_rejected(self):
        builder = ProgramBuilder("bad-addr")
        t = builder.thread("T")
        t.load("r1", "x")  # loads integer 0
        t.store("r1", 5)  # stores through it -> error
        execution = initial(builder.build())
        (load,) = execution.eligible_loads()
        with pytest.raises(ExecutionError):
            execution.resolve_load(load.nid, execution.init_nodes["x"])

    def test_unknown_location_rejected(self):
        builder = ProgramBuilder("bad-loc")
        builder.init("p", "nowhere")
        # 'nowhere' becomes a location via initial_memory scanning, so point
        # at something truly absent via arithmetic-free register defaulting:
        t = builder.thread("T")
        t.load("r1", "p")
        t.load("r2", "r1")
        execution = initial(builder.build())
        # resolving r1 against init gives "nowhere", which IS a location
        # (pointer values are scanned), so this one actually succeeds:
        (load,) = execution.eligible_loads()
        execution.resolve_load(load.nid, execution.init_nodes["p"])
        assert execution.graph.nodes[load.nid].value == "nowhere"


class TestTableEdges:
    def test_sc_orders_all_memory_ops(self, sb_program):
        execution = initial(sb_program, "sc")
        thread_nodes = [n for n in execution.graph.nodes if n.tid == 0]
        assert execution.graph.before(thread_nodes[0].nid, thread_nodes[1].nid)

    def test_weak_leaves_different_addresses_unordered(self, sb_program):
        execution = initial(sb_program, "weak")
        thread_nodes = [n for n in execution.graph.nodes if n.tid == 0]
        assert not execution.graph.ordered(thread_nodes[0].nid, thread_nodes[1].nid)

    def test_same_address_store_store_ordered_under_weak(self):
        builder = ProgramBuilder("ss")
        t = builder.thread("T")
        t.store("x", 1)
        t.store("x", 2)
        execution = initial(builder.build(), "weak")
        nodes = [n for n in execution.graph.nodes if not n.is_init]
        assert execution.graph.before(nodes[0].nid, nodes[1].nid)

    def test_fence_orders_across(self):
        builder = ProgramBuilder("fence")
        t = builder.thread("T")
        t.store("x", 1)
        t.fence()
        t.load("r1", "y")
        execution = initial(builder.build(), "weak")
        store, fence, load = [n for n in execution.graph.nodes if not n.is_init]
        assert execution.graph.before(store.nid, fence.nid)
        assert execution.graph.before(fence.nid, load.nid)
        assert execution.graph.before(store.nid, load.nid)

    def test_branch_store_ordering(self):
        """Stores are ordered after prior branches even once resolved —
        the control dependency reaches the store through the branch."""
        execution = initial(build_branchy())
        (load,) = [n for n in execution.eligible_loads() if n.tid == 1]
        flag_store = [
            n for n in execution.graph.nodes if n.tid == 0 and n.writes_memory
        ][0]
        execution.resolve_load(load.nid, flag_store.nid)
        p1 = [n for n in execution.graph.nodes if n.tid == 1]
        branch, store = p1[1], p1[2]
        assert execution.graph.before(branch.nid, store.nid)
        assert execution.graph.before(load.nid, store.nid)  # via the branch


class TestAliasEdges:
    def test_nonspeculative_addr_dependency(self):
        """§5.1: a later memory op depends on the producer of an earlier
        potentially-aliasing op's address."""
        builder = ProgramBuilder("alias")
        builder.init("p", "x")
        t = builder.thread("T")
        t.load("r1", "p")  # produces the address
        t.store("r1", 7)  # S through pointer
        t.load("r2", "y")  # potentially aliases the store
        execution = initial(builder.build(), "weak")
        nodes = [n for n in execution.graph.nodes if not n.is_init]
        pointer_load, _store, final_load = nodes
        assert execution.graph.edge_kinds(pointer_load.nid, final_load.nid) & EdgeKind.ADDR_DEP

    def test_speculative_mode_drops_addr_dependency(self):
        builder = ProgramBuilder("alias-spec")
        builder.init("p", "x")
        t = builder.thread("T")
        t.load("r1", "p")
        t.store("r1", 7)
        t.load("r2", "y")
        execution = initial(builder.build(), "weak-spec")
        nodes = [n for n in execution.graph.nodes if not n.is_init]
        pointer_load, _store, final_load = nodes
        kinds = execution.graph.edge_kinds(pointer_load.nid, final_load.nid)
        assert kinds is None or not (kinds & EdgeKind.ADDR_DEP)

    def test_same_addr_edge_inserted_when_addresses_resolve(self):
        builder = ProgramBuilder("alias-hit")
        builder.init("p", "y")
        t = builder.thread("T")
        t.load("r1", "p")
        t.store("r1", 7)  # resolves to y
        t.load("r2", "y")  # same address!
        execution = initial(builder.build(), "weak")
        (load,) = execution.eligible_loads()
        execution.resolve_load(load.nid, execution.init_nodes["p"])
        nodes = [n for n in execution.graph.nodes if not n.is_init]
        store, final_load = nodes[1], nodes[2]
        assert store.addr == "y"
        assert execution.graph.before(store.nid, final_load.nid)


class TestCopySemantics:
    def test_copy_isolates_state(self, sb_program):
        execution = initial(sb_program)
        duplicate = execution.copy()
        assert duplicate.state_key() == execution.state_key()
        (load, *_) = duplicate.eligible_loads()
        duplicate.resolve_load(load.nid, duplicate.init_nodes[load.addr])
        original_node = execution.graph.node(load.nid)
        assert not original_node.executed
        assert execution.state_key() != duplicate.state_key()

    def test_loop_program_completes(self):
        execution = initial(build_loop())
        from repro.core.candidates import candidate_stores

        # Drive one arbitrary schedule to completion.
        while not execution.completed():
            loads = execution.eligible_loads()
            assert loads
            load = loads[0]
            stores = candidate_stores(execution, load)
            execution.resolve_load(load.nid, stores[-1].nid)
        assert all(node.executed for node in execution.graph.nodes)
