"""Unit tests for dynamic nodes and the error hierarchy."""

from repro import errors
from repro.core.node import INIT_TID, Node
from repro.isa.instructions import Load, OpClass, Store
from repro.isa.operands import Const, Reg


class TestNode:
    def test_init_node_properties(self):
        node = Node(
            nid=0,
            tid=INIT_TID,
            index=0,
            instruction=None,
            op_class=OpClass.STORE,
            executed=True,
            writes=True,
            addr="x",
            stored=0,
        )
        assert node.is_init
        assert node.is_visible_store
        assert "init" in node.describe()

    def test_memory_classification(self):
        load = Node(0, 0, 0, Load(Reg("r1"), Const("x")), OpClass.LOAD)
        store = Node(1, 0, 1, Store(Const("x"), Const(1)), OpClass.STORE)
        rmw = Node(2, 0, 2, None, OpClass.RMW)
        assert load.reads_memory and not load.writes_memory
        assert store.writes_memory and not store.reads_memory
        assert rmw.reads_memory and rmw.writes_memory

    def test_visible_store_requires_execution_and_write(self):
        store = Node(0, 0, 0, Store(Const("x"), Const(1)), OpClass.STORE)
        assert not store.is_visible_store
        store.executed = True
        assert not store.is_visible_store  # writes flag not yet set
        store.writes = True
        assert store.is_visible_store

    def test_clone_independent(self):
        node = Node(0, 0, 0, Load(Reg("r1"), Const("x")), OpClass.LOAD)
        clone = node.clone()
        clone.executed = True
        clone.value = 7
        assert not node.executed and node.value is None

    def test_clone_copies_every_slot(self):
        node = Node(4, INIT_TID, 1, None, OpClass.STORE, executed=True, writes=True,
                    addr="x", stored=0, value=0)
        clone = node.clone()
        assert clone == node and clone is not node
        for name in Node.__slots__:
            assert getattr(clone, name) == getattr(node, name), name

    def test_fragment_is_memoized_only_once_settled(self):
        load = Node(0, 0, 0, Load(Reg("r1"), Const("x")), OpClass.LOAD, addr="x")
        nodes = [load]
        assert load.fragment(nodes) == repr(load.state(nodes)).encode()
        assert load.key_fragment is None  # unresolved: it may still change
        load.executed = True
        load.value = 0
        load.source = 0
        assert load.fragment(nodes) == repr(load.state(nodes)).encode()
        assert load.key_fragment == load.fragment(nodes)

    def test_clone_drops_the_fragment_memo(self):
        node = Node(0, INIT_TID, 0, None, OpClass.STORE, executed=True, writes=True,
                    addr="x", stored=0, value=0)
        memo = node.fragment([node])
        assert node.key_fragment == memo
        clone = node.clone()
        assert clone.key_fragment is None
        clone.stored = clone.value = 5  # a deep graph copy may mutate its clones
        assert clone.fragment([clone]) == repr(clone.state([clone])).encode() != memo

    def test_class_predicates_are_construction_time_attributes(self):
        expected = {
            OpClass.LOAD: (True, False), OpClass.STORE: (False, True),
            OpClass.RMW: (True, True), OpClass.COMPUTE: (False, False),
            OpClass.FENCE: (False, False), OpClass.BRANCH: (False, False),
        }
        for op_class, (reads, writes) in expected.items():
            node = Node(0, 0, 0, None, op_class)
            assert (node.reads_memory, node.writes_memory) == (reads, writes)
            assert node.is_memory == (reads or writes)
            assert not node.is_init
        assert "is_memory" in Node.__slots__
        assert "is_memory" not in repr(node)  # derived: not part of repr or ==

    def test_describe_unresolved_marker(self):
        node = Node(0, 0, 0, Load(Reg("r1"), Const("x")), OpClass.LOAD)
        assert "[unresolved]" in node.describe()
        node.executed = True
        node.value = 3
        assert "[unresolved]" not in node.describe()
        assert "val=3" in node.describe()


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in (
            "ProgramError",
            "AssemblerError",
            "ExecutionError",
            "GraphError",
            "CycleError",
            "AtomicityViolation",
            "SerializationError",
            "EnumerationError",
            "ConditionError",
            "CoherenceError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_cycle_error_carries_endpoints(self):
        error = errors.CycleError(3, 7)
        assert error.source == 3 and error.target == 7
        assert "3" in str(error) and "7" in str(error)

    def test_assembler_error_line_numbers(self):
        error = errors.AssemblerError("bad", line_number=12)
        assert "line 12" in str(error)
        assert errors.AssemblerError("bad").line_number is None
