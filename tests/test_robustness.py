"""Tests for the SC-robustness analysis and the new CLI subcommands."""


import pytest

from repro.analysis.compare import check_robustness
from repro.analysis.static import certify_robustness
from repro.cli import main
from repro.core.enumerate import enumerate_behaviors
from repro.litmus.library import all_tests, get_test
from repro.models import get_model

#: Library pairs whose only non-SC behaviors show in final memory.
STORE_ONLY_RELAXATIONS = [
    ("2+2W", "pso"),
    ("2+2W", "weak"),
    ("R", "tso"),
    ("R", "pso"),
    ("R", "weak"),
    ("S", "pso"),
    ("S", "weak"),
    ("3.2W", "pso"),
    ("3.2W", "weak"),
]


class TestRobustness:
    def test_sb_not_robust_against_weak(self):
        report = check_robustness(get_test("SB").program, "weak")
        assert not report.robust
        assert len(report.extra_behaviors) == 1

    def test_fenced_sb_robust(self):
        report = check_robustness(get_test("SB+fences").program, "weak")
        assert report.robust
        assert report.extra_behaviors == frozenset()

    def test_mp_robust_against_tso_not_pso(self):
        program = get_test("MP").program
        assert check_robustness(program, "tso").robust
        assert not check_robustness(program, "pso").robust

    def test_ra_annotations_restore_mp_robustness(self):
        assert check_robustness(get_test("MP+ra").program, "weak").robust

    def test_sb_ra_still_not_robust(self):
        assert not check_robustness(get_test("SB+ra").program, "weak").robust

    def test_summary_text(self):
        report = check_robustness(get_test("SB").program, "weak")
        assert "NOT robust" in report.summary()
        assert "P0:r1=0" in report.summary()

    @pytest.mark.parametrize(("name", "model"), STORE_ONLY_RELAXATIONS)
    def test_store_only_relaxations_are_not_robust(self, name, model):
        """Their non-SC behavior lives in final memory, which a
        register-only comparison cannot see."""
        program = get_test(name).program
        registers = enumerate_behaviors(program, get_model(model)).register_outcomes()
        assert registers <= enumerate_behaviors(program, get_model("sc")).register_outcomes()
        report = check_robustness(program, model)
        assert report.complete and not report.robust

    def test_summary_prints_final_memory(self):
        summary = check_robustness(get_test("2+2W").program, "weak").summary()
        assert "{[x]=1, [y]=1}" in summary

    def test_agrees_with_the_static_certificate_on_the_library(self):
        disagreements = [
            (test.name, model)
            for test in all_tests()
            for model in ("tso", "pso", "weak")
            if check_robustness(test.program, model).robust
            != certify_robustness(test.program, model).robust
        ]
        assert disagreements == []


class TestCliSubcommands:
    def test_robust_exit_codes(self, capsys):
        assert main(["robust", "SB", "-m", "weak"]) == 1
        assert main(["robust", "SB+fences", "-m", "weak"]) == 0
        out = capsys.readouterr().out
        assert "NOT robust" in out and "is robust" in out

    def test_robust_store_only_relaxation_exits_1(self, capsys):
        assert main(["robust", "2+2W", "-m", "weak"]) == 1
        assert "2+2W is NOT robust against weak" in capsys.readouterr().out

    def test_robust_answers_for_every_model(self, capsys):
        assert main(["robust", "MP", "-m", "tso", "-m", "pso"]) == 1
        out = capsys.readouterr().out
        assert "MP is robust against tso" in out
        assert "MP is NOT robust against pso" in out

    def test_fences_subcommand(self, capsys):
        assert main(["fences", "MP", "-m", "pso"]) == 0
        assert "P0@1" in capsys.readouterr().out

    def test_fences_budget_failure(self, capsys):
        assert main(["fences", "SB", "-m", "weak", "--max-fences", "1"]) == 1
        assert "NO fence placement" in capsys.readouterr().out

    def test_generate_subcommand(self, capsys):
        assert main(["generate", "Fre", "PodWR", "Fre", "PodWR", "-m", "tso"]) == 0
        out = capsys.readouterr().out
        assert "exists" in out and "observed Yes" in out

    def test_generate_unknown_edge(self, capsys):
        assert main(["generate", "Xyz", "PodWR"]) == 2
        assert "unknown edge" in capsys.readouterr().err
