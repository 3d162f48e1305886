"""Serializability of executions (paper Section 3.1).

A serialization of an execution is a total order ``<`` on all operations
such that

1. ``A ≺ B ⇒ A < B`` (local instruction order respected),
2. ``source(L) < L``,
3. there is no ``S =a L`` with ``source(L) < S < L`` (every load reads
   the most recent same-address store).

Since non-memory operations never constrain memory values, it suffices to
order the *memory* operations while respecting the ``⊑`` relation
projected onto them (paths through ALU/branch/fence nodes are captured by
graph reachability).  :func:`find_serialization` performs an operational
replay search — memory operations are appended one at a time, and a load
may be appended only while its source is the current value of its
address.  :func:`all_serializations` enumerates every witness order,
which lets tests validate the Store Atomicity closure against the
declarative definition of ``⊑`` ("A ⊑ B iff A < B in every
serialization").

TSO executions with bypass edges are deliberately *not* serializable
(that is the paper's point in Section 6); pass ``forwarded_ok=True`` to
treat bypassed loads as satisfied at any point at or after their source's
position minus the buffer — i.e. they are simply skipped during replay
validation, matching the grey edges' exemption from ``⊑``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterator

from repro.errors import SerializationError
from repro.core.execution import Execution
from repro.core.node import Node
from repro.isa.disassembler import disassemble


def _memory_nodes(execution: Execution) -> list[Node]:
    return [node for node in execution.graph.nodes if node.is_memory]


def _replay_ready(
    execution: Execution,
    node: Node,
    placed: set[int],
    latest: dict,
    bypassed: set[int],
) -> bool:
    """Can ``node`` be appended to the serialization now?"""
    graph = execution.graph
    for prior in graph.ancestors(node.nid):
        if graph.node(prior).is_memory and prior not in placed:
            return False
    if node.reads_memory and node.nid not in bypassed:
        if latest.get(node.addr) != node.source:
            return False
    return True


def _serialize_search(
    execution: Execution,
    order: list[int],
    placed: set[int],
    latest: dict,
    remaining: list[Node],
    bypassed: set[int],
    all_orders: bool,
) -> Iterator[list[int]]:
    if not remaining:
        yield list(order)
        return
    for index, node in enumerate(remaining):
        if not _replay_ready(execution, node, placed, latest, bypassed):
            continue
        saved_latest = latest.get(node.addr) if node.is_memory else None
        order.append(node.nid)
        placed.add(node.nid)
        if node.is_visible_store:
            latest[node.addr] = node.nid
        rest = remaining[:index] + remaining[index + 1 :]
        produced = False
        for witness in _serialize_search(
            execution, order, placed, latest, rest, bypassed, all_orders
        ):
            produced = True
            yield witness
            if not all_orders:
                break
        order.pop()
        placed.discard(node.nid)
        if node.is_visible_store:
            if saved_latest is None:
                latest.pop(node.addr, None)
            else:
                latest[node.addr] = saved_latest
        if produced and not all_orders:
            return


def find_serialization(
    execution: Execution, forwarded_ok: bool = False
) -> list[int] | None:
    """One witness serialization of the execution's memory operations, as
    a list of nids (init stores included), or None if none exists."""
    nodes = _memory_nodes(execution)
    bypassed = (
        {v for (_, v) in execution.graph.bypass_edges()} if forwarded_ok else set()
    )
    for witness in _serialize_search(execution, [], set(), {}, nodes, bypassed, False):
        return witness
    return None


def all_serializations(
    execution: Execution, forwarded_ok: bool = False, limit: int = 100000
) -> list[list[int]]:
    """Every witness serialization (use only on small executions)."""
    nodes = _memory_nodes(execution)
    bypassed = (
        {v for (_, v) in execution.graph.bypass_edges()} if forwarded_ok else set()
    )
    result = []
    for witness in _serialize_search(execution, [], set(), {}, nodes, bypassed, True):
        result.append(witness)
        if len(result) >= limit:
            raise SerializationError(f"more than {limit} serializations; aborting")
    return result


def is_serializable(execution: Execution, forwarded_ok: bool = False) -> bool:
    """Whether a witness total order exists (Section 3.1's declarative view)."""
    return find_serialization(execution, forwarded_ok) is not None


def require_serializable(execution: Execution) -> list[int]:
    """A witness order, raising :class:`SerializationError` if none exists."""
    witness = find_serialization(execution)
    if witness is None:
        raise SerializationError(
            f"execution of {execution.program.name!r} under "
            f"{execution.model.name} has no serialization"
        )
    return witness


def always_before_pairs(execution: Execution) -> frozenset[tuple[int, int]]:
    """Pairs (u, v) of memory nodes with u before v in *every*
    serialization — the declarative definition of ``⊑`` (Section 3.1).

    Exponential; intended for validating the closure on small executions.
    """
    orders = all_serializations(execution)
    if not orders:
        raise SerializationError("execution has no serialization")
    nodes = [node.nid for node in _memory_nodes(execution)]
    pairs = set()
    for u in nodes:
        for v in nodes:
            if u == v:
                continue
            if all(order.index(u) < order.index(v) for order in orders):
                pairs.add((u, v))
    return frozenset(pairs)


# ----------------------------------------------------------------------
# the canonical behavior-cache digest

#: Bump when the canonical form below changes, or when what an entry
#: stored under it holds changes: a key from another format version must
#: never collide with this one's, so the version is hashed in.  Version 2:
#: cached results carry the stats of the stable-load search, not of the
#: search that branched on every eligible load.
BEHAVIOR_CACHE_KEY_VERSION = 2

_LIMIT_FIELDS = (
    "max_behaviors",
    "max_executions",
    "max_nodes_per_thread",
    "deadline_seconds",
    "max_memory_mb",
)


def behavior_cache_key(program, model, limits=None, *, digest_size: int = 16) -> bytes:
    """The canonical digest identifying one enumeration request.

    Behaviors are a pure function of ``(program, model, limits)``, so
    this digest is a complete content address for an enumeration result
    — the key the :class:`~repro.cache.store.BehaviorCache` memo store
    is organized around.  Stability contract:

    * **program** hashes as its canonical disassembly
      (:func:`~repro.isa.disassembler.disassemble`: sorted initial
      memory, normalized operand spelling), so the same program
      assembled twice — or round-tripped through text — keys
      identically, while any instruction change rekeys.  The program
      *name* is included: cached executions carry their program object,
      and a rename must re-enumerate rather than replay an execution
      whose embedded name disagrees.
    * **model** hashes as its name plus full semantic content (every
      reordering-table entry, the bypass and speculation flags), so a
      redefined model never replays stale behaviors from under an old
      definition.
    * **limits** hashes every budget field — a limit change can change
      which prefix of the space a *partial* search sees, and even for
      complete results "same request" is defined as same budgets.
      ``None`` normalizes to the default
      :class:`~repro.core.enumerate.EnumerationLimits` — exactly what
      :func:`~repro.core.enumerate.enumerate_behaviors` runs with, so
      the two spellings of the same request share one key.

    The digest is deterministic across processes and platforms (the
    canonical form is sorted JSON; no ``PYTHONHASHSEED`` dependence).
    """
    if limits is None:
        from repro.core.enumerate import EnumerationLimits

        limits = EnumerationLimits()
    limits_fields = [getattr(limits, name) for name in _LIMIT_FIELDS]
    payload = {
        "version": BEHAVIOR_CACHE_KEY_VERSION,
        "program": disassemble(program),
        "model": model.canonical_form(),
        "limits": limits_fields,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=digest_size).digest()
