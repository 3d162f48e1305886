"""Tests for acquire/release access annotations (half fences)."""


from repro.core.enumerate import enumerate_behaviors
from repro.isa.assembler import parse_instruction
from repro.isa.dsl import ProgramBuilder
from repro.isa.instructions import Load, Rmw, Store
from repro.isa.operands import Const, Reg
from repro.models import WEAK, OrderRequirement, get_model
from repro.operational.storebuffer import run_pso, run_tso

LOAD_ACQ = Load(Reg("r1"), Const("x"), acquire=True)
LOAD_PLAIN = Load(Reg("r1"), Const("x"))
STORE_REL = Store(Const("y"), Const(1), release=True)
STORE_PLAIN = Store(Const("y"), Const(1))


class TestAnnotationsInModels:
    def test_acquire_orders_later_memory_ops(self):
        assert WEAK.requirement(LOAD_ACQ, STORE_PLAIN) is OrderRequirement.ALWAYS
        assert WEAK.requirement(LOAD_ACQ, LOAD_PLAIN) is OrderRequirement.ALWAYS

    def test_plain_load_unordered(self):
        assert WEAK.requirement(LOAD_PLAIN, STORE_PLAIN) is OrderRequirement.SAME_ADDRESS

    def test_release_orders_earlier_memory_ops(self):
        assert WEAK.requirement(LOAD_PLAIN, STORE_REL) is OrderRequirement.ALWAYS
        assert WEAK.requirement(STORE_PLAIN, STORE_REL) is OrderRequirement.ALWAYS

    def test_release_does_not_constrain_later_ops(self):
        assert WEAK.requirement(STORE_REL, LOAD_PLAIN) is OrderRequirement.SAME_ADDRESS

    def test_acquire_does_not_constrain_earlier_ops(self):
        assert WEAK.requirement(STORE_PLAIN, LOAD_ACQ) is OrderRequirement.SAME_ADDRESS

    def test_tso_bypass_unaffected_by_acquire_target(self):
        tso = get_model("tso")
        assert tso.requirement(STORE_PLAIN, LOAD_ACQ) is OrderRequirement.NONE

    def test_rmw_annotations(self):
        rmw_acq = Rmw(Reg("r1"), Const("l"), *_xchg_args(), acquire=True)
        rmw_rel = Rmw(Reg("r1"), Const("l"), *_xchg_args(), release=True)
        assert WEAK.requirement(rmw_acq, LOAD_PLAIN) is OrderRequirement.ALWAYS
        assert WEAK.requirement(LOAD_PLAIN, rmw_rel) is OrderRequirement.ALWAYS


def _xchg_args():
    from repro.isa.instructions import RmwKind

    return (RmwKind.EXCHANGE, (Const(1),))


class TestAssemblerSyntax:
    def test_load_acquire(self):
        assert parse_instruction("r1 = L.acq x") == Load(Reg("r1"), Const("x"), acquire=True)

    def test_store_release(self):
        assert parse_instruction("S.rel y, 2") == Store(Const("y"), Const(2), release=True)

    def test_rmw_suffixes(self):
        acq = parse_instruction("r1 = xchg.acq l, 1")
        rel = parse_instruction("r1 = xchg.rel l, 1")
        both = parse_instruction("r1 = cas.acqrel l, 0, 1")
        assert acq.acquire and not acq.release
        assert rel.release and not rel.acquire
        assert both.acquire and both.release

    def test_annotations_visible_in_rendering(self):
        assert "L.acq" in str(parse_instruction("r1 = L.acq x"))
        assert "S.rel" in str(parse_instruction("S.rel y, 2"))
        assert ".acqrel" in str(parse_instruction("r1 = cas.acqrel l, 0, 1"))


def build_mp_ra():
    builder = ProgramBuilder("MP+ra")
    writer = builder.thread("P0")
    writer.store("x", 1)
    writer.store("flag", 1, release=True)
    reader = builder.thread("P1")
    reader.load("r1", "flag", acquire=True)
    reader.load("r2", "x")
    return builder.build()


def build_sb_ra():
    builder = ProgramBuilder("SB+ra")
    p0 = builder.thread("P0")
    p0.store("x", 1, release=True)
    p0.load("r1", "y", acquire=True)
    p1 = builder.thread("P1")
    p1.store("y", 1, release=True)
    p1.load("r2", "x", acquire=True)
    return builder.build()


def build_lb_acq():
    builder = ProgramBuilder("LB+acq")
    p0 = builder.thread("P0")
    p0.load("r1", "y", acquire=True)
    p0.store("x", 1)
    p1 = builder.thread("P1")
    p1.load("r2", "x", acquire=True)
    p1.store("y", 1)
    return builder.build()


def _observable(program, model_name, **registers):
    result = enumerate_behaviors(program, get_model(model_name))
    for outcome in result.register_outcomes():
        flat = {reg: value for (_, reg), value in outcome}
        if all(flat.get(name) == wanted for name, wanted in registers.items()):
            return True
    return False


class TestReleaseAcquireLitmus:
    def test_mp_ra_forbidden_everywhere(self):
        program = build_mp_ra()
        for model_name in ("sc", "tso", "pso", "weak"):
            assert not _observable(program, model_name, r1=1, r2=0), model_name

    def test_mp_plain_observable_under_weak(self):
        builder = ProgramBuilder("MP")
        w = builder.thread("P0")
        w.store("x", 1)
        w.store("flag", 1)
        r = builder.thread("P1")
        r.load("r1", "flag")
        r.load("r2", "x")
        assert _observable(builder.build(), "weak", r1=1, r2=0)

    def test_sb_ra_still_relaxed(self):
        """Release/acquire do NOT order a store before a later load —
        SB stays observable (the classic 'RA is weaker than SC')."""
        program = build_sb_ra()
        assert _observable(program, "weak", r1=0, r2=0)
        assert _observable(program, "tso", r1=0, r2=0)
        assert not _observable(program, "sc", r1=0, r2=0)

    def test_lb_acq_forbidden_under_weak(self):
        assert not _observable(build_lb_acq(), "weak", r1=1, r2=1)

    def test_release_lock_handoff(self):
        """A release store publishes the critical write under WEAK: the
        lock starts HELD (1); the owner writes data and releases; a taker
        that acquires the lock must see the data."""
        builder = ProgramBuilder("handoff")
        builder.init("lock", 1)
        owner = builder.thread("P0")
        owner.store("data", 42)
        owner.store("lock", 0, release=True)  # unlock
        taker = builder.thread("P1")
        taker.cas("r1", "lock", 0, 1, acquire=True)
        taker.load("r2", "data")
        result = enumerate_behaviors(builder.build(), get_model("weak"))
        acquired = 0
        for outcome in result.register_outcomes():
            flat = {reg: value for (_, reg), value in outcome}
            if flat["r1"] == 0:  # acquired the released lock
                acquired += 1
                assert flat["r2"] == 42
        assert acquired > 0

        from repro.litmus.library import get_test

        library = enumerate_behaviors(get_test("lock-handoff").program, get_model("weak"))
        assert library.complete and len(library) > 0


class TestOperationalConsistency:
    def test_mp_ra_axiomatic_equals_operational(self):
        program = build_mp_ra()
        for model_name, machine in (("tso", run_tso), ("pso", run_pso)):
            axiomatic = enumerate_behaviors(
                program, get_model(model_name)
            ).register_outcomes()
            assert axiomatic == machine(program).outcomes, model_name

    def test_pso_release_restores_mp(self):
        program = build_mp_ra()
        stale = frozenset({(("P1", "r1"), 1), (("P1", "r2"), 0)})
        assert stale not in run_pso(program).outcomes
