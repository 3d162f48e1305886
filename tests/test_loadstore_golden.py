"""Golden pin of the enumerator's behaviour sets, keys only.

For every (program, model) item, ``golden/loadstore_keys.json`` holds the
number of executions and a blake2b digest of their sorted
``repr(loadstore_key())`` list.  Nothing else is pinned: unlike
``tests/test_engine_golden.py`` (which also pins ``EnumerationStats``,
state keys and the recorded edges, all of which move whenever the search
takes a different path), this pin moves only when a behaviour set moves.
A change to the order or the choice of Load Resolution steps must leave
it alone.

Items: the litmus library under every registered model, the four
``enum-large`` benchmark items under weak, and the solver gate's wide-12
under sc and weak.

Regenerate only when a behaviour set changes on purpose::

    PYTHONPATH=src python -m tests.test_loadstore_golden --gen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.enumerate import enumerate_behaviors
from repro.experiments.scaling import chain_program, sb_chain
from repro.litmus.families import sb_ring
from repro.litmus.library import all_tests
from repro.models import available_models, get_model
from tests.test_solver_golden import _wide_program

GOLDEN = Path(__file__).resolve().parent / "golden" / "loadstore_keys.json"


def _items():
    """``(label, program, model name)`` for every pinned item."""
    for test in all_tests():
        for model_name in available_models():
            yield f"{test.name}/{model_name}", test.program, model_name
    families = (
        ("fanout-4x1", chain_program(4, 1)),
        ("fanout-3x2", chain_program(3, 2)),
        ("sb-chain-3", sb_chain(3)),
        ("sb-ring-6", sb_ring(6).program),
    )
    for name, program in families:
        yield f"{name}/weak", program, "weak"
    for model_name in ("sc", "weak"):
        yield f"wide-12/{model_name}", _wide_program(12), model_name


def _entry(program, model_name: str) -> dict:
    result = enumerate_behaviors(program, get_model(model_name))
    assert result.complete
    keys = sorted(repr(execution.loadstore_key()) for execution in result.executions)
    digest = hashlib.blake2b(repr(keys).encode(), digest_size=16).hexdigest()
    return {"executions": len(keys), "keys": digest}


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


ITEMS = list(_items())


@pytest.mark.parametrize(
    "label, program, model_name", ITEMS, ids=[label for label, _, _ in ITEMS]
)
def test_behaviour_set_matches_golden(label, program, model_name):
    assert _entry(program, model_name) == _load()[label]


def test_golden_covers_every_item():
    assert sorted(_load()) == sorted(label for label, _, _ in ITEMS)


def _generate() -> None:
    golden = {label: _entry(program, model_name) for label, program, model_name in ITEMS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} items to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--gen"]:
        sys.exit("usage: python -m tests.test_loadstore_golden --gen")
    _generate()
