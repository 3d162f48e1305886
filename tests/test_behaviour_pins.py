"""Golden pins of what users read back: behaviour sets, job results and
``repro explain`` text.

For the 23 ``tests/corpus/`` programs and a handful of library tests,
under sc, tso, pso and weak (default limits), ``golden/behaviour_pins.json``
holds, per item:

* ``enumerate`` and ``solve``: the number of executions and a blake2b
  digest of the sorted ``repr(loadstore_key())`` list of
  ``enumerate_behaviors`` and of ``solve_behaviors``;
* ``result``: a blake2b digest of the job server's
  ``canonical_result`` JSON (sorted keys) of the enumeration;
* ``explain`` (library tests only; corpus programs carry no condition):
  whether ``repro explain`` calls the outcome forbidden, and a blake2b
  digest of its text.

Nothing about how a set is reached is pinned (no counters, no model
order), so a change to the search order of the enumerator or the solver
must leave every pin alone.

Regenerate only when a behaviour set or a rendering changes on purpose::

    PYTHONPATH=src python -m tests.test_behaviour_pins --gen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.solver import explain_forbidden, solve_behaviors
from repro.core.enumerate import enumerate_behaviors
from repro.litmus.library import get_test
from repro.models import get_model
from repro.service.jobs import canonical_result
from repro.testing.corpus import load_corpus

GOLDEN = Path(__file__).resolve().parent / "golden" / "behaviour_pins.json"
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
MODELS = ("sc", "tso", "pso", "weak")
LIBRARY = ("SB", "MP", "LB", "WRC", "IRIW", "CoRR", "2+2W", "MP+fences")


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _keys(result) -> dict:
    keys = sorted(repr(execution.loadstore_key()) for execution in result.executions)
    return {"executions": len(keys), "keys": _digest(repr(keys))}


def _items():
    """``(label, program, test or None, model name)`` for every pinned item."""
    for entry in load_corpus(CORPUS_DIR):
        for model_name in MODELS:
            yield f"corpus/{entry.path.stem}/{model_name}", entry.program, None, model_name
    for name in LIBRARY:
        test = get_test(name)
        for model_name in MODELS:
            yield f"library/{name}/{model_name}", test.program, test, model_name


def _entry(program, test, model_name: str) -> dict:
    model = get_model(model_name)
    enumerated = enumerate_behaviors(program, model)
    entry = {
        "enumerate": _keys(enumerated),
        "solve": _keys(solve_behaviors(program, model)),
        "result": _digest(json.dumps(canonical_result(enumerated), sort_keys=True)),
    }
    if test is not None:
        explanation = explain_forbidden(test, model)
        entry["explain"] = {
            "forbidden": explanation.forbidden,
            "text": _digest(explanation.render()),
        }
    return entry


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


ITEMS = list(_items())


@pytest.mark.parametrize(
    "label, program, test, model_name", ITEMS, ids=[label for label, *_ in ITEMS]
)
def test_pins_match_golden(label, program, test, model_name):
    assert _entry(program, test, model_name) == _load()[label]


def test_golden_covers_every_item():
    assert len(ITEMS) == (23 + len(LIBRARY)) * len(MODELS)
    assert sorted(_load()) == sorted(label for label, *_ in ITEMS)


def _generate() -> None:
    golden = {label: _entry(program, test, model) for label, program, test, model in ITEMS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} items to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--gen"]:
        sys.exit("usage: python -m tests.test_behaviour_pins --gen")
    _generate()
