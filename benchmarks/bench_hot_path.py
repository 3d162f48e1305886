"""Benchmark gate: the copy-on-write hot path of Load Resolution.

Per-branch cost of `Execution.copy()` (copy-on-write) vs an eager deep
graph copy (what the seed did), and of the bitset-derived `state_key()`
vs a faithful reconstruction of the seed's key (which re-materialized
the full reachability relation per child).  Gated: COW copy must beat
eager copy by ≥1.2×, and the combined per-branch copy+key cost must beat
the seed's by ≥1.1×.  Exits nonzero when either gate fails.

Usage::

    PYTHONPATH=src python benchmarks/bench_hot_path.py
"""

from __future__ import annotations

import sys
import time

from repro.core.enumerate import EnumerationLimits, enumerate_behaviors
from repro.experiments.scaling import chain_program
from repro.models.registry import get_model

#: Acceptance floor for copy-on-write vs eager copy.
MIN_COPY_RATIO = 1.2
#: Acceptance floor for the combined per-branch cost (copy + state_key)
#: vs the seed's (eager copy + materialized-reachability key) — the
#: number the search actually pays per Load-Resolution branch.
MIN_BRANCH_RATIO = 1.1


def seed_style_state_key(behavior) -> tuple:
    """A faithful reconstruction of the seed's ``state_key`` — node
    states plus the *fully materialized* reachability relation as a
    frozenset of identity pairs — used as the baseline the bitset-derived
    key is measured against."""
    graph = behavior.graph
    identity = {node.nid: (node.tid, node.index) for node in graph.nodes}
    node_states = tuple(
        sorted(
            (
                node.tid,
                node.index,
                node.op_class.value,
                node.executed,
                node.value,
                node.addr,
                identity[node.source] if node.source is not None else None,
                node.writes,
                node.stored,
            )
            for node in graph.nodes
        )
    )
    order_pairs = frozenset(
        (identity[u], identity[v]) for u, v in graph.reachability_pairs()
    )
    bypass = frozenset(
        (identity[u], identity[v]) for u, v in graph.bypass_edges()
    )
    thread_states = tuple(
        (
            state.pc,
            state.halted,
            state.waiting_branch is not None,
            tuple(sorted((reg, identity[nid]) for reg, nid in state.regs.items())),
        )
        for state in behavior.threads
    )
    pending = frozenset(
        (identity[u], identity[v]) for u, v in behavior.pending_alias
    )
    return (node_states, order_pairs, bypass, thread_states, pending)


def bench_hot_path() -> dict:
    """Per-branch microbenchmarks on a representative mid-search state."""
    # A behavior some way into the search: the deepest worklist entry of
    # a budgeted run.
    partial = enumerate_behaviors(
        chain_program(5), get_model("weak"), EnumerationLimits(max_behaviors=40)
    )
    behavior = partial.checkpoint.worklist[-1]

    def per_call_us(function, repeats: int = 2000, trials: int = 5) -> float:
        # Best-of-N: the minimum is the least noise-contaminated
        # estimate of the true per-call cost.
        best = float("inf")
        for _ in range(trials):
            start = time.perf_counter()
            for _ in range(repeats):
                function()
            best = min(best, (time.perf_counter() - start) / repeats * 1e6)
        return best

    cow_copy_us = per_call_us(behavior.copy)
    eager_copy_us = per_call_us(behavior.graph.copy)  # the seed's copy
    state_key_us = per_call_us(behavior.state_key)
    loadstore_key_us = per_call_us(behavior.loadstore_key)
    seed_key_us = per_call_us(lambda: seed_style_state_key(behavior))

    branch_us = cow_copy_us + state_key_us
    seed_branch_us = eager_copy_us + seed_key_us
    return {
        "graph_nodes": len(behavior.graph.nodes),
        "cow_copy_us": cow_copy_us,
        "eager_copy_us": eager_copy_us,
        "copy_ratio": eager_copy_us / cow_copy_us if cow_copy_us else 0.0,
        "state_key_us": state_key_us,
        "loadstore_key_us": loadstore_key_us,
        "seed_state_key_us": seed_key_us,
        "branch_us": branch_us,
        "seed_branch_us": seed_branch_us,
        "branch_ratio": seed_branch_us / branch_us if branch_us else 0.0,
    }


def main() -> int:
    hot_path = bench_hot_path()
    print(
        f"BENCH hot path ({hot_path['graph_nodes']} nodes): "
        f"copy {hot_path['cow_copy_us']:.1f}µs (eager {hot_path['eager_copy_us']:.1f}µs, "
        f"{hot_path['copy_ratio']:.1f}x), "
        f"state_key {hot_path['state_key_us']:.1f}µs, "
        f"loadstore_key {hot_path['loadstore_key_us']:.1f}µs; "
        f"per-branch copy+key {hot_path['branch_us']:.1f}µs vs seed "
        f"{hot_path['seed_branch_us']:.1f}µs ({hot_path['branch_ratio']:.2f}x)"
    )
    status = 0
    if hot_path["copy_ratio"] < MIN_COPY_RATIO:
        print(
            f"FAIL: copy-on-write copy only {hot_path['copy_ratio']:.2f}x faster "
            f"than eager copy (floor {MIN_COPY_RATIO}x)",
            file=sys.stderr,
        )
        status = 1
    if hot_path["branch_ratio"] < MIN_BRANCH_RATIO:
        print(
            f"FAIL: per-branch copy+key cost only {hot_path['branch_ratio']:.2f}x "
            f"better than seed (floor {MIN_BRANCH_RATIO}x)",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
