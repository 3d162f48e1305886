"""The benchmark-gate harness's exit path, with stub gates.

``benchmarks/gates.py`` is loaded by path and its gate list replaced, so
no real gate runs here: the test pins how the shared block turns gate
outcomes into the BENCH json, the ``FAIL:`` lines and the exit status.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GATES_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "gates.py"


@pytest.fixture(scope="module")
def gates():
    spec = importlib.util.spec_from_file_location("bench_gates", GATES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _passing(quick):
    return {"ratio": 7.5, "quick_seen": quick}, []


def _failing(quick):
    return {"ratio": 1.5}, ["ratio 1.5x < 5x floor"]


def _raising(quick):
    raise RuntimeError("gate blew up")


def test_failing_and_raising_gates_exit_1(gates, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(
        gates, "GATES", (("ok", _passing), ("bad", _failing), ("boom", _raising))
    )
    out = tmp_path / "BENCH_gates.json"
    assert gates.main(["--quick", "--out", str(out)]) == 1

    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["quick"] is True
    assert report["passed"] is False
    assert isinstance(report["cpu_count"], int) and report["python"]
    assert list(report["gates"]) == ["ok", "bad", "boom"]
    ok, bad, boom = (report["gates"][name] for name in ("ok", "bad", "boom"))
    assert ok["passed"] and ok["failures"] == []
    assert ok["ratio"] == 7.5 and ok["quick_seen"] is True
    assert not bad["passed"] and bad["failures"] == ["ratio 1.5x < 5x floor"]
    assert bad["ratio"] == 1.5
    assert not boom["passed"]
    assert boom["failures"] == ["raised RuntimeError: gate blew up"]

    stderr = capsys.readouterr().err
    assert "FAIL: bad: ratio 1.5x < 5x floor" in stderr
    assert "FAIL: boom: raised RuntimeError: gate blew up" in stderr
    assert "FAIL: ok" not in stderr


def test_all_gates_passing_exits_0(gates, monkeypatch, tmp_path):
    monkeypatch.setattr(gates, "GATES", (("ok", _passing),))
    out = tmp_path / "gates.json"
    assert gates.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["passed"] is True and report["quick"] is False
    assert report["gates"]["ok"]["quick_seen"] is False


def test_the_gates_run_in_fixed_order(gates):
    assert [name for name, _ in gates.GATES] == [
        "hot-path",
        "solver",
        "fencesynth",
        "cache",
        "fuzzcov",
    ]
