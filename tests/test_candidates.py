"""Unit tests for the candidates(L) computation."""

from repro.core.candidates import candidate_stores
from repro.core.execution import Execution
from repro.isa.dsl import ProgramBuilder
from repro.litmus.library import get_test
from repro.models.registry import get_model



def initial(program, model_name="weak"):
    return Execution.initial(program, get_model(model_name))


def values(execution, load):
    return sorted(store.stored for store in candidate_stores(execution, load))


class TestBasicCandidates:
    def test_init_store_is_always_a_candidate(self, sb_program):
        execution = initial(sb_program)
        for load in execution.eligible_loads():
            assert 0 in values(execution, load)

    def test_sb_loads_see_init_and_remote(self, sb_program):
        """Under WEAK each SB load may observe init or the remote store —
        and its own thread's store to the *other* location never appears."""
        execution = initial(sb_program)
        for load in execution.eligible_loads():
            assert values(execution, load) == [0, 1]

    def test_sc_load_after_own_store_sees_only_it(self):
        builder = ProgramBuilder("own")
        t = builder.thread("T")
        t.store("x", 7)
        t.load("r1", "x")
        execution = initial(builder.build(), "sc")
        (load,) = execution.eligible_loads()
        assert values(execution, load) == [7]

    def test_overwritten_store_excluded(self):
        builder = ProgramBuilder("cover")
        t = builder.thread("T")
        t.store("x", 1)
        t.store("x", 2)
        t.load("r1", "x")
        execution = initial(builder.build())
        (load,) = execution.eligible_loads()
        assert values(execution, load) == [2]

    def test_never_empty_for_eligible_loads(self, mp_program):
        for program in (mp_program, get_test("IRIW").program):
            execution = initial(program)
            for load in execution.eligible_loads():
                assert candidate_stores(execution, load)


class TestEligibility:
    def test_dependent_load_not_eligible(self):
        """A load whose address comes from another load waits for it."""
        builder = ProgramBuilder("ptr")
        builder.init("p", "x")
        t = builder.thread("T")
        t.load("r1", "p")
        t.load("r2", "r1")
        execution = initial(builder.build())
        eligible = execution.eligible_loads()
        assert [node.index for node in eligible] == [0]

    def test_fence_ordered_load_not_eligible_before_predecessor(self):
        builder = ProgramBuilder("fenced")
        t = builder.thread("T")
        t.load("r1", "x")
        t.fence()
        t.load("r2", "y")
        execution = initial(builder.build())
        eligible = execution.eligible_loads()
        assert [node.index for node in eligible] == [0]

    def test_weak_allows_both_unordered_loads(self):
        builder = ProgramBuilder("both")
        t = builder.thread("T")
        t.load("r1", "x")
        t.load("r2", "y")
        execution = initial(builder.build())
        assert len(execution.eligible_loads()) == 2

    def test_sc_serializes_load_eligibility(self):
        builder = ProgramBuilder("both-sc")
        t = builder.thread("T")
        t.load("r1", "x")
        t.load("r2", "y")
        execution = initial(builder.build(), "sc")
        assert [node.index for node in execution.eligible_loads()] == [0]


class TestBypassCandidates:
    def test_only_newest_local_store_forwardable(self):
        builder = ProgramBuilder("fwd")
        t = builder.thread("T")
        t.store("x", 1)
        t.store("x", 2)
        t.load("r1", "x")
        other = builder.thread("U")
        other.store("x", 9)
        execution = initial(builder.build(), "tso")
        (load,) = [n for n in execution.eligible_loads() if n.tid == 0]
        # init(0) is NOT offered: the local stores are ⊑-ordered after it
        # and shadow it?  No — shadowing applies to *local* entries only;
        # init and the remote 9 remain, plus the newest local 2.
        assert 1 not in values(execution, load)
        assert 2 in values(execution, load)

    def test_unresolved_local_store_address_blocks_search(self):
        builder = ProgramBuilder("blocked")
        builder.init("p", "x")
        t = builder.thread("T")
        t.load("r1", "p")  # produces the address
        t.store("r1", 5)  # buffered store, address unknown until r1
        t.load("r2", "x")  # cannot search the buffer yet
        execution = initial(builder.build(), "tso")
        assert [node.index for node in execution.eligible_loads()] == [0]
