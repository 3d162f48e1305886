"""Golden pins of the on-disk interchange formats.

* ``golden/cache_keys.json`` holds the :func:`behavior_cache_key` hex of
  every ``tests/corpus/`` program and every library test under sc, tso,
  pso and weak (default limits).  A key names a cache entry on disk, so
  a moved key orphans every entry written before it.
* ``golden/cache-MP-tso.bin`` is the cache entry of library MP under tso
  and ``golden/checkpoint-fz-branchy-7000042-weak.ckpt`` the checkpoint
  of that corpus program under weak cut at ``max_behaviors=10`` (two
  queued executions, one finished).  Each must decode to the behaviours
  it was written from and re-encode to the same bytes.

Regenerate only when a format changes on purpose::

    PYTHONPATH=src python -m tests.test_format_golden --gen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.cache import BehaviorCache
from repro.core.enumerate import (
    EnumerationCheckpoint,
    EnumerationLimits,
    enumerate_behaviors,
)
from repro.core.serialization import behavior_cache_key
from repro.litmus.library import all_tests, get_test
from repro.models import get_model
from repro.testing.corpus import load_corpus, load_entry

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CACHE_KEYS = GOLDEN_DIR / "cache_keys.json"
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
KEY_MODELS = ("sc", "tso", "pso", "weak")
CACHE_ENTRY = GOLDEN_DIR / "cache-MP-tso.bin"
CHECKPOINT = GOLDEN_DIR / "checkpoint-fz-branchy-7000042-weak.ckpt"


def _key_items():
    """``(label, program)`` for every keyed program."""
    for entry in load_corpus(CORPUS_DIR):
        yield f"corpus/{entry.path.stem}", entry.program
    for test in all_tests():
        yield f"library/{test.name}", test.program


def _cache_keys() -> dict:
    return {
        f"{label}/{model_name}": behavior_cache_key(program, get_model(model_name)).hex()
        for label, program in _key_items()
        for model_name in KEY_MODELS
    }


def test_cache_keys_match_golden():
    golden = json.loads(CACHE_KEYS.read_text())
    assert len(golden) == (23 + 45) * len(KEY_MODELS)
    assert _cache_keys() == golden


def _loadstore_keys(executions) -> list:
    return sorted(repr(execution.loadstore_key()) for execution in executions)


def _mp_tso():
    return get_test("MP").program, get_model("tso")


def _cut_branchy():
    """fz-branchy-7000042 under weak, cut after 10 explored behaviours."""
    program = load_entry(CORPUS_DIR / "fz-branchy-7000042.litmus").program
    limits = EnumerationLimits(max_behaviors=10)
    return enumerate_behaviors(program, get_model("weak"), limits).checkpoint


def _held(checkpoint) -> list:
    return _loadstore_keys(checkpoint.worklist + list(checkpoint.finished.values()))


def test_cache_entry_decodes_and_reencodes(tmp_path):
    program, model = _mp_tso()
    key = behavior_cache_key(program, model)
    (tmp_path / "golden").mkdir()
    (tmp_path / "golden" / f"{key.hex()}.bin").write_bytes(CACHE_ENTRY.read_bytes())
    hit = BehaviorCache(tmp_path / "golden").replay(program, model)
    fresh = enumerate_behaviors(program, model)
    assert hit is not None and hit.stats == fresh.stats
    assert _loadstore_keys(hit.executions) == _loadstore_keys(fresh.executions)
    again = BehaviorCache(tmp_path / "again")
    assert again.store(key, program, model, None, hit.executions, hit.stats)
    assert (tmp_path / "again" / f"{key.hex()}.bin").read_bytes() == CACHE_ENTRY.read_bytes()


def test_checkpoint_decodes_and_reencodes(tmp_path):
    checkpoint = EnumerationCheckpoint.load(CHECKPOINT)
    assert (len(checkpoint.worklist), len(checkpoint.finished)) == (2, 1)
    assert _held(checkpoint) == _held(_cut_branchy())
    checkpoint.save(tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == CHECKPOINT.read_bytes()


def _generate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    keys = _cache_keys()
    CACHE_KEYS.write_text(json.dumps(keys, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(keys)} keys to {CACHE_KEYS}")
    program, model = _mp_tso()
    result = enumerate_behaviors(program, model)
    key = behavior_cache_key(program, model)
    cache = BehaviorCache(GOLDEN_DIR)
    cache.invalidate(key)
    cache.store(key, program, model, None, result.executions, result.stats)
    (GOLDEN_DIR / f"{key.hex()}.bin").replace(CACHE_ENTRY)
    print(f"wrote {CACHE_ENTRY}")
    _cut_branchy().save(CHECKPOINT)
    print(f"wrote {CHECKPOINT}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--gen"]:
        sys.exit("usage: python -m tests.test_format_golden --gen")
    _generate()
