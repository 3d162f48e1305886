"""Golden pin of the operational machines' outcome sets, outcomes only.

For every (program, machine) item, ``golden/operational_outcomes.json``
holds the sorted outcome set of :func:`run_sc`, :func:`run_tso`,
:func:`run_pso` and :func:`run_dataflow` (weak, weak-corr and sc; on the
branch-free programs only).  Each outcome is its ``thread:register=value``
triples in sorted order.  Nothing else is pinned: ``states_explored`` and
``terminal_states`` count how a search walked the state space, and a
reduction that skips redundant interleavings must move them, but it must
never move an outcome set.

Programs: the litmus library plus the mixed-profile fuzz slice of
``tests/test_static_golden.py``.

Regenerate only when an outcome set changes on purpose::

    PYTHONPATH=src python -m tests.test_operational_golden --gen
"""

from __future__ import annotations

import json
import sys
from functools import cache
from pathlib import Path

import pytest

from repro.operational import run_dataflow, run_pso, run_sc, run_tso
from tests.test_static_golden import DATAFLOW_MODELS, _programs

GOLDEN = Path(__file__).resolve().parent / "golden" / "operational_outcomes.json"

MACHINES = {"sc": run_sc, "tso": run_tso, "pso": run_pso}


def _items():
    """``(label, program, machine)`` for every pinned item."""
    for name, program in _programs():
        for machine_name, machine in MACHINES.items():
            yield f"{name}/{machine_name}", program, machine
        if not program.has_branches():
            for model_name in DATAFLOW_MODELS:
                yield (
                    f"{name}/dataflow-{model_name}",
                    program,
                    lambda program, model_name=model_name: run_dataflow(program, model_name),
                )


def _render(outcome) -> str:
    return " ".join(
        f"{thread}:{register}={value!r}"
        for (thread, register), value in sorted(outcome, key=lambda item: item[0])
    )


def _entry(program, machine) -> list[str]:
    return sorted(_render(outcome) for outcome in machine(program).outcomes)


@cache
def _load() -> dict:
    return json.loads(GOLDEN.read_text())


ITEMS = list(_items())


@pytest.mark.parametrize(
    "label, program, machine", ITEMS, ids=[label for label, _, _ in ITEMS]
)
def test_outcomes_match_golden(label, program, machine):
    assert _entry(program, machine) == _load()[label]


def test_golden_covers_every_item():
    assert sorted(_load()) == sorted(label for label, _, _ in ITEMS)


def _generate() -> None:
    golden = {label: _entry(program, machine) for label, program, machine in ITEMS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} items to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--gen"]:
        sys.exit("usage: python -m tests.test_operational_golden --gen")
    _generate()
