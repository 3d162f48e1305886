"""Unit tests for graph generation and dataflow execution (§4.1), and
for rebuilding executions from their resolution logs."""

from pathlib import Path

import pytest

from repro.errors import EnumerationError, ExecutionError, GraphError
from repro.core.enumerate import EnumerationLimits, enumerate_behaviors
from repro.core.execution import Execution, instruction_operands
from repro.core.graph import EdgeKind
from repro.core.serialization import replay_logs
from repro.isa.assembler import assemble_program
from repro.isa.disassembler import disassemble
from repro.isa.dsl import ProgramBuilder
from repro.isa.instructions import Compute, Load, Store
from repro.isa.operands import Const, Reg
from repro.litmus.library import all_tests
from repro.models.registry import get_model
from repro.testing.corpus import load_corpus

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


class TestDedupDigest:
    @staticmethod
    def _indirect_program():
        builder = ProgramBuilder("indirect")
        t = builder.thread("T")
        t.load("r1", "p")
        t.store("r1", 7)
        t.load("r2", "y")
        builder.thread("U").store("p", "y")
        return builder.build()

    @pytest.mark.parametrize("program", ["indirect", "branchy"])
    def test_digest_follows_in_place_resolution(self, program):
        """Resolved in place, without copies, an execution digests at
        every step to what its replay (fresh nodes, no memos) digests to:
        no memoized fragment outlives a change to its node or thread."""
        from repro.core.candidates import candidate_stores

        built = self._indirect_program() if program == "indirect" else build_branchy()
        execution = initial(built, "weak")
        steps = 0
        while not execution.completed():
            fresh = replayed(execution)
            assert execution.dedup_digest() == fresh.dedup_digest()
            assert execution.state_key() == fresh.state_key()
            load = execution.eligible_loads()[0]
            execution.resolve_load(load.nid, candidate_stores(execution, load)[-1].nid)
            steps += 1
        assert steps >= 2
        assert execution.dedup_digest() == replayed(execution).dedup_digest()

    def test_thread_fragment_is_memoized_only_once_halted(self):
        execution = initial(build_branchy())
        nodes = execution.graph.nodes
        halted, blocked = execution.threads
        for state in (halted, blocked):
            assert state.fragment(nodes) == repr(state.state(nodes)).encode()
        assert halted.key_fragment == halted.fragment(nodes)
        assert blocked.key_fragment is None  # waiting on a branch: may still change
        assert halted.copy().key_fragment is None
        assert replayed(execution).threads[0].key_fragment is None


def replayed(execution: Execution) -> Execution:
    """``execution`` rebuilt from its resolution log."""
    (rebuilt,) = replay_logs(
        execution.program, execution.model, execution.max_nodes_per_thread,
        [execution.resolutions],
    )
    return rebuilt


LIBRARY = [test.program for test in all_tests()]
CORPUS = [entry.program for entry in load_corpus(Path(__file__).parent / "corpus")]


def assert_replays_exactly(program, model, executions) -> None:
    """Replaying the executions' logs, on ``program`` and on the program
    rebuilt from its disassembly, gives each execution back: the same
    dedup digest, Load-Store key and node count."""
    logs = [execution.resolutions for execution in executions]
    for target in (program, assemble_program(disassemble(program))):
        rebuilt = replay_logs(target, model, 64, logs)
        for original, copy in zip(executions, rebuilt, strict=True):
            assert copy.dedup_digest() == original.dedup_digest(), program.name
            assert copy.loadstore_key() == original.loadstore_key(), program.name
            assert len(copy.graph.nodes) == len(original.graph.nodes), program.name


class TestReplay:
    @pytest.mark.parametrize("model_name", ["sc", "tso", "pso", "weak"])
    @pytest.mark.parametrize("programs", [LIBRARY, CORPUS], ids=["library", "corpus"])
    def test_replay_rebuilds_every_execution(self, programs, model_name):
        model = get_model(model_name)
        for program in programs:
            result = enumerate_behaviors(program, model)
            assert result.executions
            assert_replays_exactly(program, model, result.executions)

    @pytest.mark.parametrize("model_name", ["sc", "tso", "weak", "weak-spec"])
    def test_replay_rebuilds_checkpoint_frontiers(self, model_name):
        """The worklist and finished executions of a cut search replay
        exactly, partial ones included."""
        model = get_model(model_name)
        frontiers = 0
        for program in LIBRARY + CORPUS:
            result = enumerate_behaviors(program, model, EnumerationLimits(max_behaviors=5))
            if result.checkpoint is not None:
                checkpoint = result.checkpoint
                held = checkpoint.worklist + list(checkpoint.finished.values())
                assert_replays_exactly(program, model, held)
                frontiers += 1
        assert frontiers > 20

    def test_replay_shares_prefixes(self, monkeypatch):
        """Sorted logs replay down one stack: IRIW/weak's 81 executions
        take far fewer resolutions than their logs hold in total."""
        result = enumerate_behaviors(LIBRARY_BY_NAME["IRIW"], get_model("weak"))
        calls = []
        real = Execution.resolve_load
        monkeypatch.setattr(
            Execution, "resolve_load",
            lambda self, *step: calls.append(step) or real(self, *step),
        )
        logs = [execution.resolutions for execution in result.executions]
        replay_logs(result.program, result.model, 64, logs)
        assert len(calls) < sum(map(len, logs)) / 2

    def test_bad_log_steps_are_refused(self, sb_program):
        execution = initial(sb_program)
        load = execution.eligible_loads()[0]
        stores = [node for node in execution.graph.nodes if node.is_visible_store]
        for step in ((99, stores[0].nid), (load.nid, 99), (stores[0].nid, stores[0].nid)):
            with pytest.raises(GraphError):
                replay_logs(sb_program, execution.model, 64, [(step,)])


LIBRARY_BY_NAME = {test.name: test.program for test in all_tests()}


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

    def test_copy_shares_only_halted_thread_states(self):
        """A halted thread never changes again, so copies share its state;
        a thread blocked on a branch gets its own, and resolving the
        branch in the copy leaves the original untouched."""
        execution = initial(build_branchy())
        halted, blocked = execution.threads
        assert halted.halted and not blocked.halted
        assert blocked.waiting_branch is not None
        before = execution.state_key()
        duplicate = execution.copy()
        assert duplicate.threads[0] is halted
        assert duplicate.threads[1] is not blocked
        while not duplicate.completed():
            load = duplicate.eligible_loads()[0]
            duplicate.resolve_load(load.nid, duplicate.init_nodes[load.addr])
        assert duplicate.threads[1].halted
        assert execution.state_key() == before
        assert blocked.waiting_branch is not None and not blocked.halted

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
