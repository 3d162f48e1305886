"""Golden pin of the enumeration engine's observable results.

One blake2b digest over, for every (program, model) pair: the
``EnumerationStats``, and for every execution its ``state_key``, its
``loadstore_key`` and its sorted explicit edges (kinds included, so the
dotted Store Atomicity edges that ``repro.viz`` draws are pinned too).

Programs: the whole litmus library plus a fixed slice of the mixed-profile
fuzz stream.  Models: sc, tso, pso and weak.  Any change to the engine's
search, its canonical keys or the edges it records moves the digest; a
refactor that claims to be behavior-preserving must leave it alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

from repro.core.enumerate import enumerate_behaviors
from repro.litmus.library import all_tests
from repro.models import get_model
from repro.testing.fuzzgen import MIXED, derive_seed, generate_program, profile_for_index
from repro.testing.oracles import FUZZ_LIMITS

MODELS = ("sc", "tso", "pso", "weak")
FUZZ_SEED = 7
FUZZ_SLICE = range(10)

GOLDEN_DIGEST = "ce7667ffed49851b62983adf3b319614"


def _programs():
    for test in all_tests():
        yield test.name, test.program
    for index in FUZZ_SLICE:
        yield f"fuzz-{index}", generate_program(
            derive_seed(FUZZ_SEED, index), profile_for_index(MIXED, index)
        )


def _engine_digest() -> tuple[str, int]:
    """The digest, plus how many executions list their nodes out of
    canonical (tid, index) order (``state_key``'s permuted path)."""
    digest = hashlib.blake2b(digest_size=16)
    permuted = 0
    for name, program in _programs():
        for model_name in MODELS:
            result = enumerate_behaviors(program, get_model(model_name), FUZZ_LIMITS)
            digest.update(repr((name, model_name, result.complete, asdict(result.stats))).encode())
            for execution in result.executions:
                identities = [(node.tid, node.index) for node in execution.graph.nodes]
                permuted += identities != sorted(identities)
                edges = sorted((u, v, int(kinds)) for u, v, kinds in execution.graph.edges())
                digest.update(
                    repr((execution.state_key(), execution.loadstore_key(), edges)).encode()
                )
    return digest.hexdigest(), permuted


def test_engine_results_match_golden_digest():
    digest, permuted = _engine_digest()
    assert permuted > 0, "the pin must cover state_key's non-identity rank path"
    assert digest == GOLDEN_DIGEST
