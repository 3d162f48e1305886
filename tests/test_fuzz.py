"""The differential fuzzing subsystem: generator, oracles, shrinker,
campaign driver, and the mutation-kill proof of effectiveness."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble
from repro.isa.instructions import Store
from repro.isa.operands import Const
from repro.testing.corpus import CorpusEntry, load_entry, save_entry
from repro.testing.coverage import run_guided_campaign
from repro.testing.fuzz import (
    MutantKill,
    campaign_items,
    fuzz_one,
    hunt_mutant,
    run_campaign,
)
from repro.testing.fuzzgen import (
    MIXED,
    PROFILES,
    generate_program,
    get_profile,
    iter_programs,
)
from repro.testing.mutants import MUTANTS, get_mutant
from repro.testing.oracles import ORACLES, get_oracle, run_oracles
from repro.testing.shrink import shrink

# ---------------------------------------------------------------------------
# generator


class TestGenerator:
    def test_deterministic(self):
        for name, profile in PROFILES.items():
            assert generate_program(7, profile) == generate_program(7, profile), name

    def test_seeds_differ(self):
        profile = get_profile("default")
        programs = {str(generate_program(seed, profile)) for seed in range(8)}
        assert len(programs) >= 6, "distinct seeds should give distinct programs"

    def test_profiles_differ(self):
        assert generate_program(3, get_profile("relaxed")) != generate_program(
            3, get_profile("branchy")
        )

    def test_programs_round_trip_the_assembler(self):
        for _seed, _name, program in iter_programs(5, 12):
            assert assemble(disassemble(program)).program == program

    def test_mixed_stream_covers_every_profile(self):
        names = {name for _seed, name, _program in iter_programs(0, len(PROFILES))}
        assert names == set(PROFILES)

    def test_profiles_deliver_their_features(self):
        from repro.isa.instructions import Branch, Load, Rmw
        from repro.isa.operands import Reg

        def instructions(profile_name, count=10):
            for seed in range(count):
                program = generate_program(seed, get_profile(profile_name))
                for thread in program.threads:
                    yield from thread.code

        assert any(isinstance(i, Rmw) for i in instructions("rmw"))
        assert any(isinstance(i, Branch) for i in instructions("branchy"))
        assert any(
            isinstance(i, Load) and isinstance(i.addr, Reg)
            for i in instructions("dataflow")
        )

    def test_unknown_profile_rejected(self):
        with pytest.raises(ReproError):
            get_profile("nonexistent")


# ---------------------------------------------------------------------------
# oracles


class TestOracles:
    def test_registry_lookup(self):
        assert get_oracle("axiomatic-vs-sc").name == "axiomatic-vs-sc"
        with pytest.raises(ReproError):
            get_oracle("axiomatic-vs-vapor")

    def test_clean_on_known_good_program(self, sb_program):
        discrepancies, skipped = run_oracles(sb_program)
        assert not discrepancies
        # SB is branch-free, so even the dataflow oracle participates.
        assert "axiomatic-vs-dataflow" not in skipped

    def test_branchy_programs_skip_dataflow_oracle(self):
        program = generate_program(4, get_profile("branchy"))
        assert program.has_branches()
        _discrepancies, skipped = run_oracles(program)
        assert "axiomatic-vs-dataflow" in skipped

    def test_every_oracle_fires_somewhere(self):
        """Across a small campaign, each oracle participates (runs
        un-skipped) on at least one program."""
        participated = set()
        for _seed, _name, program in iter_programs(0, len(PROFILES)):
            _discrepancies, skipped = run_oracles(program)
            participated |= {o.name for o in ORACLES} - set(skipped)
        assert participated == {o.name for o in ORACLES}


# ---------------------------------------------------------------------------
# shrinker


class TestShrink:
    def test_shrinks_to_the_failing_core(self, mp_program):
        # "Still fails" := still contains a store to x.  The minimizer
        # should strip everything else.
        def has_store_to_x(program):
            return any(
                isinstance(i, Store) and i.addr == Const("x")
                for t in program.threads
                for i in t.code
            )

        result = shrink(mp_program, has_store_to_x)
        assert result.instructions == 1
        assert has_store_to_x(result.program)
        assert result.original_instructions == 4

    def test_non_failing_program_returned_unchanged(self, sb_program):
        result = shrink(sb_program, lambda program: False)
        assert result.program == sb_program
        assert result.reductions_applied == 0

    def test_raising_predicate_counts_as_not_failing(self, sb_program):
        def explodes(program):
            if program.instruction_count() < 4:
                raise RuntimeError("boom")
            return True

        result = shrink(sb_program, explodes)
        # Every reduction below 4 instructions raises, so the minimum
        # reachable size is 4 — and shrink never propagates the error.
        assert result.instructions == 4

    def test_branchy_program_shrinks_with_labels_intact(self):
        program = generate_program(11, get_profile("branchy"))
        result = shrink(program, lambda p: p.instruction_count() >= 2)
        assert result.instructions == 2
        # The shrunk program is still well-formed and enumerable.
        run_oracles(result.program, names=("axiomatic-vs-sc",))


# ---------------------------------------------------------------------------
# campaign driver


class TestCampaign:
    def test_deterministic_verdicts(self):
        first = run_campaign(seed=3, budget=5, do_shrink=False)
        second = run_campaign(seed=3, budget=5, do_shrink=False)
        assert first.verdicts == second.verdicts
        assert first.clean

    def test_items_are_chunking_independent(self):
        whole = campaign_items(9, 6)
        assert whole[:3] == campaign_items(9, 3)

    def test_fuzz_one_is_picklable_unit(self):
        import pickle

        item = campaign_items(1, 1)[0]
        verdict = fuzz_one(item)
        assert pickle.loads(pickle.dumps(verdict)) == verdict

    def test_summary_mentions_failures(self):
        report = run_campaign(seed=3, budget=2, do_shrink=False)
        text = report.summary()
        assert "programs checked : 2" in text
        assert "discrepancies    : 0" in text

    def test_both_campaigns_bank_minimized_reproducers(self, tmp_path):
        """Under a mutant, the blind and the guided campaign shrink each
        counterexample and bank it as ``<name>-min``; the guided one says
        so in the note.  File names and texts are pinned byte for byte."""
        oracles = ("axiomatic-vs-sc",)
        with get_mutant("candidates-drop-init").applied():
            blind = run_campaign(0, 6, oracle_names=oracles, corpus_dir=tmp_path / "blind")
            guided = run_guided_campaign(
                tmp_path / "campaign", 0, 6, oracle_names=oracles, batch_size=6,
                corpus_dir=tmp_path / "guided", fsync=False,
            )
        assert [path.name for _, _, path in blind.minimized] == ["fz-fences-5-min.litmus"]
        assert (tmp_path / "blind" / "fz-fences-5-min.litmus").read_text() == (
            "# fuzz-seed: 5\n# fuzz-profile: fences\n# fuzz-oracle: axiomatic-vs-sc\n"
            "# fuzz-note: minimized from 4 instructions\n"
            "test fz-fences-5-min\n\nthread P0\n    r1 = L x\n\nthread P1\n    S x, 1\n"
        )
        notes = {
            path.name: load_entry(path).note for _, _, path in guided.minimized
        }
        assert notes == {
            "fz-default-6-min.litmus": "minimized from 7 instructions (guided campaign)",
            "fz-dataflow-12-min.litmus": "minimized from 15 instructions (guided campaign)",
            "fz-branchy-18-min.litmus": "minimized from 10 instructions (guided campaign)",
        }


# ---------------------------------------------------------------------------
# mutation kill: the subsystem must catch real bugs

_KILL_BUDGET = 20


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed_and_minimized(mutant, tmp_path):
    kill: MutantKill = hunt_mutant(
        mutant, seed=0, budget=_KILL_BUDGET, corpus_dir=tmp_path
    )
    assert kill.detected, f"{mutant.name} survived {_KILL_BUDGET} programs"
    assert kill.reproducer_instructions is not None
    assert kill.reproducer_instructions <= 8
    assert kill.corpus_path is not None and kill.corpus_path.exists()
    assert kill.replay_fails_under_mutant, "banked reproducer must replay"
    assert kill.healthy_tree_clean, "reproducer must pass on the healthy tree"


def test_mutant_patches_are_reversible(sb_program):
    baseline, _ = run_oracles(sb_program, names=("axiomatic-vs-sc",))
    mutant = get_mutant("sc-load-load-relaxed")
    with mutant.applied():
        pass
    after, _ = run_oracles(sb_program, names=("axiomatic-vs-sc",))
    assert baseline == after == []


# ---------------------------------------------------------------------------
# corpus format


class TestCorpusFormat:
    def test_save_load_round_trip(self, tmp_path, sb_program):
        entry = CorpusEntry(
            program=sb_program,
            seed=42,
            profile="default",
            oracle="axiomatic-vs-sc",
            note="hand-made",
        )
        path = save_entry(entry, tmp_path)
        loaded = load_entry(path)
        assert loaded.program == sb_program
        assert (loaded.seed, loaded.profile, loaded.oracle, loaded.note) == (
            42,
            "default",
            "axiomatic-vs-sc",
            "hand-made",
        )

    def test_identical_entries_dedupe(self, tmp_path, sb_program):
        entry = CorpusEntry(program=sb_program, seed=1)
        assert save_entry(entry, tmp_path) == save_entry(entry, tmp_path)
        assert len(list(tmp_path.glob("*.litmus"))) == 1

    def test_name_collisions_get_suffixes(self, tmp_path, sb_program, mp_program):
        renamed = CorpusEntry(
            program=type(mp_program)(mp_program.threads, {}, sb_program.name)
        )
        first = save_entry(CorpusEntry(program=sb_program), tmp_path)
        second = save_entry(renamed, tmp_path)
        assert first != second
        assert len(list(tmp_path.glob("*.litmus"))) == 2

    def test_unknown_header_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.litmus"
        bad.write_text("# fuzz-flavor: vanilla\ntest t\n\nthread P0\n    S x, 1\n")
        with pytest.raises(ReproError):
            load_entry(bad)


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            cwd=Path(__file__).parent.parent,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )

    def test_fuzz_smoke_is_deterministic(self):
        first = self._run("fuzz", "--budget", "4", "--seed", "9")
        second = self._run("fuzz", "--budget", "4", "--seed", "9")
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout

    def test_list_flags(self):
        oracles = self._run("fuzz", "--list-oracles")
        assert "axiomatic-vs-sc" in oracles.stdout
        mutants = self._run("fuzz", "--list-mutants")
        assert "closure-dropped" in mutants.stdout
        profiles = self._run("fuzz", "--list-profiles")
        assert "branchy" in profiles.stdout

    def test_replay_corpus_entry(self):
        corpus = Path(__file__).parent / "corpus"
        entry = sorted(corpus.glob("*-min.litmus"))[0]
        result = self._run("fuzz", "--replay", str(entry))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "reproduces" in result.stdout
