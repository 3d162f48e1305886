"""Tests for the command-line interface."""

import argparse
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.isa.disassembler import disassemble
from repro.litmus.families import independent_writers


class TestModels:
    def test_listing(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "weak" in out and "tso" in out

    def test_table(self, capsys):
        assert main(["models", "--table", "weak"]) == 0
        out = capsys.readouterr().out
        assert "x != y" in out

    def test_unknown_model(self, capsys):
        assert main(["models", "--table", "nope"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_library_test(self, capsys):
        assert main(["run", "SB", "-m", "sc"]) == 0
        out = capsys.readouterr().out
        assert "SB under sc" in out and "No" in out

    def test_multiple_models(self, capsys):
        assert main(["run", "SB", "-m", "sc", "-m", "weak"]) == 0
        out = capsys.readouterr().out
        assert "under sc" in out and "under weak" in out

    def test_default_model_is_weak(self, capsys):
        assert main(["run", "SB"]) == 0
        assert "under weak" in capsys.readouterr().out

    def test_file_input(self, tmp_path, capsys):
        source = tmp_path / "t.litmus"
        source.write_text(
            "test tiny\nthread P0\n  S x, 1\n  r1 = L x\nexists (P0:r1=1)\n"
        )
        assert main(["run", str(source), "-m", "sc"]) == 0
        assert "tiny under sc" in capsys.readouterr().out

    def test_unknown_test(self, capsys):
        assert main(["run", "NOPE"]) == 2
        assert "library tests" in capsys.readouterr().err

    def test_dot_output(self, tmp_path, capsys):
        target = tmp_path / "g.dot"
        assert main(["run", "SB", "-m", "weak", "--dot", str(target)]) == 0
        assert target.read_text().startswith("digraph")


class TestEnumerate:
    def test_outcome_listing(self, capsys):
        assert main(["enumerate", "MP", "-m", "weak"]) == 0
        out = capsys.readouterr().out
        assert "4 distinct executions" in out
        assert "P1:r1=1  P1:r2=0" in out

    def test_graph_printing(self, capsys):
        assert main(["enumerate", "SB", "-m", "sc", "--graphs", "1"]) == 0
        assert "thread 0:" in capsys.readouterr().out

    def test_missing_test_and_resume_is_an_error(self, capsys):
        assert main(["enumerate", "-m", "weak"]) == 2
        assert "error:" in capsys.readouterr().err


#: More than one non-SC outcome under weak, so the listing has an order.
SB_WIDE = """test sb-wide
thread P0
  S x, 1
  r1 = L y
  r2 = L z
thread P1
  S y, 1
  S z, 1
  r3 = L x
exists (P0:r1=0 /\\ P1:r3=0)
"""


class TestDeterministicListings:
    """Outcome listings are byte-identical whatever the string hashing:
    a listing ordered by ``repr`` of a frozenset changed between
    processes."""

    @staticmethod
    def _output(hash_seed: str, *argv: str) -> str:
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            cwd=Path(__file__).parent.parent,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": hash_seed},
        ).stdout

    def test_enumerate_listing_ignores_hash_seed(self):
        first = self._output("1", "enumerate", "WRC", "-m", "weak")
        assert first.count("P1:r1=") == 8
        assert first == self._output("2", "enumerate", "WRC", "-m", "weak")

    def test_robustness_summary_ignores_hash_seed(self, tmp_path):
        source = tmp_path / "sb-wide.litmus"
        source.write_text(SB_WIDE)
        first = self._output("1", "robust", str(source), "-m", "weak")
        assert "3 non-SC outcome(s)" in first
        assert first == self._output("2", "robust", str(source), "-m", "weak")


class TestResilienceFlags:
    def test_budgeted_enumerate_reports_partial(self, capsys):
        assert main(["enumerate", "WRC", "-m", "weak", "--max-behaviors", "5"]) == 0
        assert "partial (behavior-budget)" in capsys.readouterr().out

    def test_strict_budget_raises_to_error_exit(self, capsys):
        code = main(
            ["enumerate", "WRC", "-m", "weak", "--max-behaviors", "5", "--strict"]
        )
        assert code == 2
        assert "exceeded 5 explored behaviors" in capsys.readouterr().err

    def test_checkpoint_and_resume_roundtrip(self, tmp_path, capsys):
        checkpoint = tmp_path / "wrc.ckpt"
        assert (
            main(
                [
                    "enumerate",
                    "WRC",
                    "-m",
                    "weak",
                    "--max-behaviors",
                    "5",
                    "--checkpoint",
                    str(checkpoint),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrote checkpoint" in out
        assert checkpoint.exists()
        assert main(["enumerate", "--resume", str(checkpoint)]) == 0
        resumed = capsys.readouterr().out
        assert "[complete]" in resumed
        assert "8 distinct executions" in resumed

    def test_deadline_flag_on_run(self, capsys):
        assert main(["run", "SB", "-m", "sc", "--deadline", "1000"]) == 0
        assert "PARTIAL" not in capsys.readouterr().out


class TestMatrix:
    def test_subset(self, capsys):
        assert main(["matrix", "--tests", "SB,MP", "--models", "sc,weak"]) == 0
        out = capsys.readouterr().out
        assert "SB" in out and "MP" in out


class TestWellsync:
    def test_racy_exit_code(self, capsys):
        assert main(["wellsync", "MP", "-m", "weak", "--sync", "flag"]) == 1
        assert "RACY" in capsys.readouterr().out

    def test_sync_everything(self, capsys):
        assert main(["wellsync", "MP", "-m", "weak", "--sync", "flag,x"]) == 0
        assert "WELL SYNCHRONIZED" in capsys.readouterr().out

    def test_deadline_is_enforced(self, tmp_path, capsys):
        source = tmp_path / "iriw-4r.litmus"
        source.write_text(disassemble(independent_writers(4).program, "exists (R0:r1=1)"))
        assert main(["wellsync", str(source), "-m", "weak", "--deadline", "0.05"]) == 2
        captured = capsys.readouterr()
        assert "error: exceeded the 0.05s deadline for 'iriw-4r'" in captured.err
        assert "SYNCHRONIZED" not in captured.out

    def test_shows_only_the_flags_it_honours(self, capsys):
        """The check is always strict: no ``--strict`` flag, and the
        deadline help promises the exit 2, not a partial result."""
        with pytest.raises(SystemExit) as exc:
            main(["wellsync", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--strict" not in text and "partial result" not in text
        assert "an exhausted deadline exits 2 with 'error:'" in text
        with pytest.raises(SystemExit) as exc:
            main(["wellsync", "MP", "-m", "weak", "--strict"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --strict" in capsys.readouterr().err


#: Library pairs on which ``repro explain`` once answered wrongly: 19
#: "observable" verdicts for outcomes the runner shows do not hold, and
#: the 8 register-valued-store tests that raised a traceback.
_EXPLAIN_REGRESSIONS = [
    *((name, "sc") for name in ("2+2W", "R", "S", "3.2W")),
    *(
        (name, model)
        for name in ("CoWW", "CoWR", "S+fences", "R+fences", "2+2W+fences", "WWC+fences")
        for model in ("sc", "weak")
    ),
    *((name, "weak") for name in ("MP+ra", "LB+acq", "IRIW+acq")),
    *((name, model) for name in ("LB+data", "MP+addr") for model in ("sc", "tso", "pso", "weak")),
]


class TestExplain:
    @pytest.mark.parametrize(("name", "model"), _EXPLAIN_REGRESSIONS)
    def test_exit_code_is_the_runners_verdict(self, name, model, capsys):
        """Exit 1 (reachable) exactly when the runner observes the outcome,
        exit 0 (forbidden) exactly when it does not."""
        from repro.litmus.library import get_test
        from repro.litmus.runner import run_litmus

        expected = 1 if run_litmus(get_test(name), model).holds else 0
        assert main(["explain", name, "-m", model]) == expected
        assert ("FORBIDDEN" in capsys.readouterr().out) == (expected == 0)

    def test_second_model_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explain", "SB", "-m", "sc", "-m", "tso"])
        assert exc.value.code == 2 and "takes one model" in capsys.readouterr().err

    def test_exhausted_deadline_exits_2(self, capsys):
        assert main(["explain", "SB", "-m", "sc", "--deadline", "0"]) == 2
        captured = capsys.readouterr()
        assert "error: exceeded the 0.0s deadline for 'SB'" in captured.err
        assert "FORBIDDEN" not in captured.out

    def test_shows_only_the_flags_it_honours(self, capsys):
        """``explain`` is always strict: the deadline help promises the
        exit 2, not a partial result."""
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--strict" not in text and "partial result" not in text
        assert "an exhausted deadline exits 2 with 'error:'" in text


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return action.choices


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_strict_flag_is_offered_exactly_where_it_is_read(command, capsys):
    """``COMMAND --help`` lists ``--strict`` iff the command's function
    reads ``args.strict``."""
    reads = "args.strict" in inspect.getsource(_subcommands()[command].get_default("func"))
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert ("--strict" in capsys.readouterr().out) == reads
