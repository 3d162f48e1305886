"""Tests for the per-thread dataflow framework (CFG, constants, aliasing),
its soundness against enumeration, and its consumers: the precise
analyzer and the speculation-safety verdict."""

import itertools

import pytest

from repro.analysis.static import (
    analyze_program,
    build_cfg,
    compute_static_facts,
    speculation_safety,
)
from repro.analysis.static.conflict import collect_accesses
from repro.analysis.static.dataflow import may_alias, must_alias
from repro.cli import main
from repro.core.enumerate import enumerate_behaviors
from repro.experiments.fig89 import build_program as build_fig8
from repro.isa.dsl import ProgramBuilder
from repro.isa.lint import LintLevel, lint_program
from repro.litmus.library import get_test
from repro.models.registry import get_model
from repro.testing.oracles import FUZZ_LIMITS
from tests.test_engine_golden import MODELS
from tests.test_engine_golden import _programs as golden_programs


def build_diamond():
    """Both arms of a branch write the address register; the store after
    the join is must-execute with the two-element address set {a, b}."""
    builder = ProgramBuilder("diamond")
    p0 = builder.thread("P0")
    p0.load("r1", "flag")
    p0.beqz("r1", "else")
    p0.mov("r2", "a")
    p0.jmp("join")
    p0.label("else")
    p0.mov("r2", "b")
    p0.label("join")
    p0.store("r2", 1)
    p1 = builder.thread("P1")
    p1.store("flag", 1)
    p1.store("c", 2)
    return builder.build()


def build_folded():
    """The store address is a constant moved through a register."""
    builder = ProgramBuilder("folded")
    p0 = builder.thread("P0")
    p0.mov("r1", "x")
    p0.store("r1", 1)
    p1 = builder.thread("P1")
    p1.load("r2", "x")
    return builder.build()


def build_loop():
    builder = ProgramBuilder("loop")
    p0 = builder.thread("P0")
    p0.store("flag", 1)
    p1 = builder.thread("P1")
    p1.mov("r9", 2)
    p1.label("again")
    p1.load("r1", "flag")
    p1.bnez("r1", "done")
    p1.compute("r9", "sub", "r9", 1)
    p1.bnez("r9", "again")
    p1.label("done")
    p1.load("r2", "flag")
    return builder.build()


def build_dead_arm():
    """The branch condition is the constant 0, so the store is dead."""
    builder = ProgramBuilder("dead-arm")
    p0 = builder.thread("P0")
    p0.mov("r1", 0)
    p0.bnez("r1", "dead")
    p0.jmp("end")
    p0.label("dead")
    p0.store("x", 99)
    p0.label("end")
    p0.load("r2", "x")
    return builder.build()


class TestDiamond:
    def test_join_merges_both_arms(self):
        program = build_diamond()
        facts = compute_static_facts(program)
        assert facts.threads[0].analyzable
        store = facts.access(0, 5)
        assert store.addresses == frozenset({"a", "b"})
        assert store.must_execute and not store.exact

    def test_register_defined_on_every_path_is_initialized(self):
        facts = compute_static_facts(build_diamond())
        assert facts.threads[0].maybe_uninit == frozenset()

    def test_must_not_alias_pair_previously_merged(self):
        program = build_diamond()
        facts = compute_static_facts(program)
        # The syntactic analyzer merged the dynamic-address store with
        # every location; the value sets prove it can never touch "c".
        store, other = facts.address_set(0, 5), facts.address_set(1, 1)
        assert not may_alias(store, other)
        assert may_alias(store, store) and not must_alias(store, store)
        assert analyze_program(program, "weak", precise=False).conservative

    def test_collect_accesses_carries_location_sets(self):
        program = build_diamond()
        facts = compute_static_facts(program)
        store = next(
            access
            for access in collect_accesses(program, facts)
            if access.thread == "P0" and access.index == 5
        )
        assert store.locations == frozenset({"a", "b"})
        assert store.location is None

    def test_cfg_shape(self):
        cfg = build_cfg(build_diamond().threads[0])
        assert len(cfg.blocks) >= 4  # entry, two arms, join


class TestConstantFolding:
    def test_folded_address_is_exact(self):
        program = build_folded()
        facts = compute_static_facts(program)
        store = facts.access(0, 1)
        assert store.addresses == frozenset({"x"})
        assert store.exact
        assert must_alias(store.addresses, facts.address_set(1, 0))

    def test_analyzer_resolves_it_exactly(self):
        program = build_folded()
        assert not analyze_program(program, "weak").conservative
        assert analyze_program(program, "weak", precise=False).conservative


class TestLoops:
    def test_looping_thread_degrades_gracefully(self):
        facts = compute_static_facts(build_loop())
        assert facts.threads[0].analyzable  # straight-line thread
        assert not facts.threads[1].analyzable
        assert facts.threads[1].maybe_uninit is None
        assert not facts.analyzable

    def test_lint_falls_back_to_linear_scan(self):
        builder = ProgramBuilder("loop-uninit")
        p0 = builder.thread("P0")
        p0.label("top")
        p0.load("r1", "r8")  # r8 never written: address-before-write
        p0.bnez("r1", "top")
        program = builder.build()
        errors = [f for f in lint_program(program) if f.level is LintLevel.ERROR]
        assert any("memory address" in f.message for f in errors)


class TestDeadCode:
    def test_dead_store_excluded(self):
        program = build_dead_arm()
        facts = compute_static_facts(program)
        assert facts.is_dead(0, 3)
        kinds = [access.kind for access in collect_accesses(program, facts)]
        assert kinds == ["R"]  # only the live load survives

    def test_dead_uninit_address_not_flagged(self):
        builder = ProgramBuilder("dead-uninit")
        p0 = builder.thread("P0")
        p0.mov("r1", 1)
        p0.bnez("r1", "ok")  # always taken
        p0.load("r9", "r8")  # unreachable: r8 would be a 0-address read
        p0.label("ok")
        p0.store("x", 1)
        program = builder.build()
        assert not [f for f in lint_program(program) if f.level is LintLevel.ERROR]

    def test_uninit_on_one_arm_still_flagged(self):
        builder = ProgramBuilder("one-arm")
        p0 = builder.thread("P0")
        p0.load("r1", "flag")
        p0.bnez("r1", "skip")  # taken path reaches the use with r2 uninit
        p0.mov("r2", "x")
        p0.label("skip")
        p0.load("r3", "r2")
        p1 = builder.thread("P1")
        p1.store("flag", 1)
        program = builder.build()
        errors = [f for f in lint_program(program) if f.level is LintLevel.ERROR]
        assert any("memory address" in f.message for f in errors)


class TestSoundnessAgainstEnumeration:
    """The facts are sound for every execution the enumerator reaches: a
    node's dynamic address lies in its slot's static address set, and the
    must/never alias verdicts hold between the dynamic addresses."""

    @pytest.mark.parametrize("model_name", MODELS)
    def test_facts_hold_on_every_enumerated_execution(self, model_name):
        model = get_model(model_name)
        checked = 0
        for name, program in golden_programs():
            facts = compute_static_facts(program)
            for execution in enumerate_behaviors(program, model, FUZZ_LIMITS).executions:
                nodes = [
                    node
                    for node in execution.graph.nodes
                    if node.is_memory and node.executed and node.static_index is not None
                ]
                for node in nodes:
                    addresses = facts.address_set(node.tid, node.static_index)
                    assert addresses is None or node.addr in addresses, (
                        f"{name}/{model_name}: {node} at {node.addr!r} "
                        f"outside {sorted(map(repr, addresses))}"
                    )
                for first, second in itertools.combinations(nodes, 2):
                    sets = (
                        facts.address_set(first.tid, first.static_index),
                        facts.address_set(second.tid, second.static_index),
                    )
                    if must_alias(*sets):
                        assert first.addr == second.addr, f"{name}: {first} {second}"
                    elif not may_alias(*sets):
                        assert first.addr != second.addr, f"{name}: {first} {second}"
                checked += len(nodes)
        assert checked > 0


class TestSpeculationSafety:
    def test_library_address_dependency_is_safe(self):
        report = speculation_safety(get_test("MP+addr").program, "weak")
        assert report.all_safe

    def test_fig8_final_load_is_unsafe(self):
        report = speculation_safety(build_fig8(), "weak")
        assert [(v.thread, v.index) for v in report.unsafe_loads()] == [("B", 4)]
        assert "L8" in report.summary() or "B[4]" in report.summary()


class TestCli:
    def test_dataflow_subcommand(self, capsys):
        assert main(["dataflow", "MP+addr"]) == 0
        out = capsys.readouterr().out
        assert "MP+addr" in out

    def test_analyze_syntactic_flag(self, capsys):
        # exit 1 = races predicted, the analyze subcommand's contract
        assert main(["analyze", "MP+addr", "--syntactic"]) == 1
        assert "[conservative" in capsys.readouterr().out
        assert main(["analyze", "MP+addr"]) == 1
        assert "[conservative" not in capsys.readouterr().out

    def test_analyze_offers_no_precise_flag(self, capsys):
        """The dataflow layer is the default; only ``--syntactic`` is
        read, so no no-op ``--precise`` flag is offered."""
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        help_text = capsys.readouterr().out
        assert "--syntactic" in help_text
        assert "--precise" not in help_text
