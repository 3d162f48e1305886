"""Benchmark: the persistent behavior cache on the litmus library.

Two sweeps over the litmus library × memory models, recorded in one
BENCH json (the perf trajectory):

* **Cold sweep**: a fresh cache directory; every enumeration is a miss
  and populates the store.  Per-cell wall time and the sorted
  Load–Store graph key sets are recorded.
* **Warm sweep**: a *new* :class:`~repro.cache.store.BehaviorCache`
  instance on the same directory (so the in-process LRU starts empty
  and every hit is served from disk: one open, one read, one unpickle).
* **Novel-key probes**: lookups of keys the store has never seen — the
  common case in a fuzz campaign.  Their median latency is recorded.

Four gates, all enforced on both the full and the ``--quick`` run:

* **Speedup floor**: warm sweep ≥5× faster than cold (wall clock).
* **Hit rate**: ≥99% of warm cells must be served from the cache
  (``result.cached``); in practice it is 100% — the floor tolerates
  only environmental noise, never a correctness bug.
* **Byte-identical results**: the sorted ``loadstore_key`` set of every
  warm cell must equal its cold counterpart exactly — a cache that is
  fast but wrong fails the build.
* **No false hits**: every novel-key probe must miss.

Exits nonzero when any gate fails.  The CI smoke job runs this with
``--quick`` (a model subset; the gates still bite).

Usage::

    PYTHONPATH=src python benchmarks/bench_cache.py [--quick]
        [--out BENCH_cache.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.cache import BehaviorCache
from repro.core.enumerate import enumerate_behaviors
from repro.litmus.library import all_tests
from repro.models.registry import available_models, get_model

#: Acceptance floor for the warm-over-cold wall-clock speedup.  A disk
#: hit (one open + read + unpickle) must beat re-enumeration by a wide
#: margin even on the library's smallest tests.
MIN_WARM_SPEEDUP = 5.0
#: Acceptance floor for the warm-sweep hit rate.
MIN_HIT_RATE = 0.99
#: Novel-key lookups timed (and required to miss).
NOVEL_PROBES = 20000


def sweep_cells(quick: bool) -> list[tuple]:
    """(test, model_name) pairs — the library crossed with the models."""
    models = ("sc", "tso", "weak") if quick else available_models()
    return [(test, name) for test in all_tests() for name in models]


def run_sweep(cells: list[tuple], cache: BehaviorCache) -> tuple[float, list[dict]]:
    """One pass over the cells; returns (wall seconds, per-cell rows)."""
    rows = []
    start = time.perf_counter()
    for test, model_name in cells:
        cell_start = time.perf_counter()
        result = enumerate_behaviors(test.program, get_model(model_name), cache=cache)
        rows.append(
            {
                "test": test.name,
                "model": model_name,
                "cached": result.cached,
                "executions": len(result.executions),
                "seconds": time.perf_counter() - cell_start,
                "loadstore_keys": sorted(
                    repr(e.loadstore_key()) for e in result.executions
                ),
            }
        )
    return time.perf_counter() - start, rows


def probe_novel_keys(cache: BehaviorCache, probes: int) -> tuple[float, int]:
    """(median lookup seconds, false hits) over ``probes`` novel keys.

    The probe keys are deterministic (hash of a counter) so the
    benchmark is reproducible; they cannot collide with real cache keys
    except by blake2b accident.
    """
    latencies = []
    false_hits = 0
    for index in range(probes):
        key = hashlib.blake2b(b"novel-probe-%d" % index, digest_size=16).digest()
        start = time.perf_counter()
        entry = cache.lookup(key)
        latencies.append(time.perf_counter() - start)
        false_hits += entry is not None
    return statistics.median(latencies), false_hits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="model subset (sc, tso, weak) instead of the full registry "
        "(CI smoke); all four gates still apply",
    )
    parser.add_argument(
        "--out",
        default="BENCH_cache.json",
        help="path for the BENCH json (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    cells = sweep_cells(args.quick)
    cache_dir = Path(tempfile.mkdtemp(prefix="bench-cache-"))
    try:
        cold_cache = BehaviorCache(cache_dir)
        cold_seconds, cold_rows = run_sweep(cells, cold_cache)
        cold_cache.close()

        # A fresh instance on the same directory: the LRU starts empty,
        # so every warm hit exercises the full disk path.
        warm_cache = BehaviorCache(cache_dir)
        warm_seconds, warm_rows = run_sweep(cells, warm_cache)
        novel_median_s, false_hits = probe_novel_keys(warm_cache, NOVEL_PROBES)
        store_stats = warm_cache.stats()
        warm_cache.close()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    hits = sum(1 for row in warm_rows if row["cached"])
    hit_rate = hits / len(warm_rows)
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    identical = all(
        cold["loadstore_keys"] == warm["loadstore_keys"]
        for cold, warm in zip(cold_rows, warm_rows)
    )
    mismatches = [
        f"{cold['test']}/{cold['model']}"
        for cold, warm in zip(cold_rows, warm_rows)
        if cold["loadstore_keys"] != warm["loadstore_keys"]
    ]

    def strip(rows: list[dict]) -> list[dict]:
        # The key sets are compared above, not archived — 315 cells of
        # repr'd graphs would dwarf the rest of the json.
        return [
            {k: v for k, v in row.items() if k != "loadstore_keys"} for row in rows
        ]

    result = {
        "benchmark": "behavior-cache",
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cells": len(cells),
        "models": sorted({model for _, model in cells}),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": speedup,
        "warm_speedup_floor": MIN_WARM_SPEEDUP,
        "hit_rate": hit_rate,
        "hit_rate_floor": MIN_HIT_RATE,
        "results_identical": identical,
        "novel_probes": NOVEL_PROBES,
        "novel_lookup_median_us": novel_median_s * 1e6,
        "novel_false_hits": false_hits,
        "store": store_stats,
        "cold": strip(cold_rows),
        "warm": strip(warm_rows),
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(
        f"BENCH cache: {len(cells)} cells "
        f"({len(result['models'])} models × {len(all_tests())} tests)"
    )
    print(
        f"BENCH cold={cold_seconds:.2f}s warm={warm_seconds:.2f}s "
        f"speedup={speedup:.1f}x  hit rate={hit_rate:.1%}  "
        f"novel lookup median={novel_median_s * 1e6:.1f}us "
        f"({NOVEL_PROBES} probes, {false_hits} false hits)"
    )
    print(
        f"BENCH store: {store_stats['live_entries']} entries, "
        f"{store_stats['disk_bytes']} bytes"
    )
    print(f"BENCH json written to {args.out}")

    status = 0
    if speedup < MIN_WARM_SPEEDUP:
        print(
            f"FAIL: warm sweep only {speedup:.2f}x faster than cold "
            f"(floor {MIN_WARM_SPEEDUP}x)",
            file=sys.stderr,
        )
        status = 1
    if hit_rate < MIN_HIT_RATE:
        print(
            f"FAIL: warm hit rate {hit_rate:.1%} < {MIN_HIT_RATE:.0%}",
            file=sys.stderr,
        )
        status = 1
    if not identical:
        print(
            f"FAIL: cached results differ from fresh enumeration for "
            f"{', '.join(mismatches)}",
            file=sys.stderr,
        )
        status = 1
    if false_hits:
        print(
            f"FAIL: {false_hits} of {NOVEL_PROBES} novel keys answered as hits",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
