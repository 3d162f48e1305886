"""Unit tests for the operational reference machines."""

import pytest

from repro.errors import EnumerationError
from repro.isa.dsl import ProgramBuilder
from repro.operational.sc import run_sc
from repro.operational.state import ArchThreadState
from repro.operational.storebuffer import run_pso, run_store_buffer, run_tso
from repro.isa.operands import Const, Reg

from tests.conftest import build_branchy, build_loop


def outcome_set(result):
    return {tuple(sorted((f"{t}:{r}", v) for (t, r), v in o)) for o in result.outcomes}


class TestArchThreadState:
    def test_unwritten_register_reads_zero(self):
        state = ArchThreadState()
        assert state.read(Reg("r1")) == 0

    def test_write_is_persistent_and_functional(self):
        state = ArchThreadState()
        written = state.write(Reg("r1"), 5)
        assert written.read(Reg("r1")) == 5
        assert state.read(Reg("r1")) == 0

    def test_operand_evaluation(self):
        state = ArchThreadState().write(Reg("r1"), 7)
        assert state.operand(Const(3)) == 3
        assert state.operand(Reg("r1")) == 7


class TestScMachine:
    def test_sb_forbids_both_zero(self, sb_program):
        outcomes = outcome_set(run_sc(sb_program))
        assert (("P0:r1", 0), ("P1:r2", 0)) not in outcomes
        assert len(outcomes) == 3

    def test_mp_forbids_stale_read(self, mp_program):
        outcomes = outcome_set(run_sc(mp_program))
        assert (("P1:r1", 1), ("P1:r2", 0)) not in outcomes

    def test_branchy_program(self):
        outcomes = outcome_set(run_sc(build_branchy()))
        assert outcomes == {(("P1:r1", 0), ("P1:r2", 0)), (("P1:r1", 1), ("P1:r2", 7))}

    def test_loop_terminates(self):
        result = run_sc(build_loop())
        assert result.terminal_states > 0

    def test_rmw_atomic(self):
        builder = ProgramBuilder("incinc")
        builder.thread("A").fetch_add("r1", "c", 1)
        builder.thread("B").fetch_add("r2", "c", 1)
        outcomes = outcome_set(run_sc(builder.build()))
        assert outcomes == {(("A:r1", 0), ("B:r2", 1)), (("A:r1", 1), ("B:r2", 0))}

    def test_state_limit(self, sb_program):
        with pytest.raises(EnumerationError):
            run_sc(sb_program, max_states=2)


class TestStoreBufferMachine:
    def test_sb_allows_both_zero_under_tso(self, sb_program):
        outcomes = outcome_set(run_tso(sb_program))
        assert (("P0:r1", 0), ("P1:r2", 0)) in outcomes
        assert len(outcomes) == 4

    def test_fence_restores_sc_on_sb(self):
        builder = ProgramBuilder("SB+f")
        p0 = builder.thread("P0")
        p0.store("x", 1)
        p0.fence()
        p0.load("r1", "y")
        p1 = builder.thread("P1")
        p1.store("y", 1)
        p1.fence()
        p1.load("r2", "x")
        outcomes = outcome_set(run_tso(builder.build()))
        assert (("P0:r1", 0), ("P1:r2", 0)) not in outcomes

    def test_store_forwarding_sees_newest(self):
        builder = ProgramBuilder("fwd")
        t = builder.thread("T")
        t.store("x", 1)
        t.store("x", 2)
        t.load("r1", "x")
        outcomes = outcome_set(run_tso(builder.build()))
        assert outcomes == {(("T:r1", 2),)}

    def test_mp_kept_by_tso_broken_by_pso(self, mp_program):
        stale = (("P1:r1", 1), ("P1:r2", 0))
        assert stale not in outcome_set(run_tso(mp_program))
        assert stale in outcome_set(run_pso(mp_program))

    def test_pso_fence_restores_mp(self):
        builder = ProgramBuilder("MP+wf")
        p0 = builder.thread("P0")
        p0.store("x", 1)
        p0.fence()
        p0.store("flag", 1)
        p1 = builder.thread("P1")
        p1.load("r1", "flag")
        p1.load("r2", "x")
        outcomes = outcome_set(run_pso(builder.build()))
        assert (("P1:r1", 1), ("P1:r2", 0)) not in outcomes

    def test_rmw_drains_buffer(self):
        """An atomic op acts on memory after the buffer empties, so SB
        with exchanges is sequential."""
        builder = ProgramBuilder("sb-rmw")
        p0 = builder.thread("P0")
        p0.xchg("r0", "x", 1)
        p0.load("r1", "y")
        p1 = builder.thread("P1")
        p1.xchg("r2", "y", 1)
        p1.load("r3", "x")
        outcomes = outcome_set(run_tso(builder.build()))
        assert not any(
            dict(o).get("P0:r1") == 0 and dict(o).get("P1:r3") == 0 for o in outcomes
        )

    def test_tso_subset_of_pso(self, sb_program, mp_program):
        for program in (sb_program, mp_program, build_branchy()):
            assert run_tso(program).outcomes <= run_pso(program).outcomes

    def test_generic_entry_point(self, sb_program):
        assert run_store_buffer(sb_program, fifo=True).outcomes == run_tso(sb_program).outcomes


class TestEveryMachineRuns:
    """Each operational machine reaches a final state on the classic
    programs (the machines TAB-XVAL, TAB-COHERENCE and TAB-OOO compare)."""

    def test_exhaustive_machines_reach_terminal_states(self, mp_program):
        from repro.litmus.library import get_test
        from repro.operational.dataflow import run_dataflow

        assert run_sc(mp_program).terminal_states > 0
        assert run_tso(mp_program).terminal_states > 0
        assert run_pso(mp_program).terminal_states > 0
        assert run_dataflow(mp_program, "weak").terminal_states > 0
        assert run_sc(get_test("IRIW").program).terminal_states > 0

    def test_single_run_machines_make_progress(self, mp_program):
        from repro.coherence import run_coherent
        from repro.litmus.library import get_test
        from repro.ooo import run_ooo

        for seed in (5, 7):
            assert run_coherent(mp_program, seed=seed).transactions > 0
        assert run_ooo(mp_program, seed=5).steps > 0
        for name in ("SB", "IRIW", "dekker-nofence"):
            assert run_ooo(get_test(name).program, seed=7).steps > 0
        assert run_ooo(get_test("IRIW").program, 7, replay_enabled=False).steps > 0
