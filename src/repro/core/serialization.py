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

The module also holds what cache entries and checkpoints store: the
canonical request that :func:`behavior_cache_key` hashes, and the
behaviour record codec, whose resolution logs :func:`replay_logs`
turns back into executions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Iterator

from repro.errors import GraphError, ReproError, SerializationError
from repro.core.execution import Execution
from repro.core.node import Node
from repro.isa.assembler import assemble_program
from repro.isa.disassembler import disassemble
from repro.models.base import MemoryModel


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
# the canonical request and its digest

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


def canonical_json(value) -> str:
    """``value`` as sorted-key JSON without whitespace: the one encoding
    that is hashed into keys and stored in records."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def behavior_request(program, model, limits=None) -> dict:
    """The canonical form of one enumeration request: what
    :func:`behavior_cache_key` hashes, and what cache entries and
    checkpoints store.  ``None`` limits are the default
    :class:`~repro.core.enumerate.EnumerationLimits`."""
    if limits is None:
        from repro.core.enumerate import EnumerationLimits

        limits = EnumerationLimits()
    return {
        "version": BEHAVIOR_CACHE_KEY_VERSION,
        "program": disassemble(program),
        "model": model.canonical_form(),
        "limits": [getattr(limits, name) for name in _LIMIT_FIELDS],
    }


def request_key(request: dict, *, digest_size: int = 16) -> bytes:
    """The blake2b digest of a request's canonical JSON."""
    canonical = canonical_json(request).encode("utf-8")
    return hashlib.blake2b(canonical, digest_size=digest_size).digest()


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
    return request_key(behavior_request(program, model, limits), digest_size=digest_size)


def request_objects(request: dict) -> tuple:
    """Rebuild ``(program, model, limits)`` from a stored request: the
    program assembled from its disassembly, the model from its canonical
    form.  Raises :class:`ValueError` when the request does not rebuild."""
    from repro.core.enumerate import EnumerationLimits

    try:
        return (
            assemble_program(request["program"]),
            MemoryModel.from_canonical_form(request["model"]),
            EnumerationLimits(**dict(zip(_LIMIT_FIELDS, request["limits"]))),
        )
    except (ReproError, LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"holds a request that does not rebuild ({exc})") from exc


# ----------------------------------------------------------------------
# the behaviour record: request, stats and resolution logs
#
# A behaviour is fixed by its Load Resolution choices (§4: one
# ``source(L) = S`` per load), so cache entries and checkpoints store
# those choices, never a graph: a *resolution log* is the
# ``(load nid, store nid)`` pairs of :meth:`Execution.resolve_load
# <repro.core.execution.Execution.resolve_load>` in the order they were
# made, and :func:`replay_logs` rebuilds the executions from the logs.


def _encode_record(request: dict, stats, **fields) -> bytes:
    """``fields`` plus the request, its key (hex) and ``stats``, as
    canonical JSON."""
    record = dict(
        fields, request=request, key=request_key(request).hex(), stats=asdict(stats)
    )
    return canonical_json(record).encode("utf-8")


def _decode_record(payload: bytes, **fields: type) -> dict:
    """The record :func:`_encode_record` wrote, given the types of its
    ``fields``; its ``stats`` come back as
    :class:`~repro.core.enumerate.EnumerationStats`.  The integrity check
    is that the request hashes to the stored key.  Raises
    :class:`ValueError` naming the problem; nothing in the payload is
    executed."""
    from repro.core.enumerate import EnumerationStats

    try:
        record = json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"is not a JSON record ({exc})") from exc
    expected = dict(fields, request=dict, key=str, stats=dict)
    if not isinstance(record, dict) or record.keys() != expected.keys():
        raise ValueError("does not hold the fields of a record")
    for name, kind in expected.items():
        if not isinstance(record[name], kind):
            raise ValueError(f"has a {name!r} field that is not a {kind.__name__}")
    if request_key(record["request"]).hex() != record["key"]:
        raise ValueError("fails key verification (its request hashes to another key)")
    stats = record["stats"]
    if stats.keys() != EnumerationStats.__dataclass_fields__.keys() or not all(
        type(count) is int for count in stats.values()
    ):
        raise ValueError("holds malformed stats")
    record["stats"] = EnumerationStats(**stats)
    return record


def _log(value) -> tuple[tuple[int, int], ...]:
    """A stored resolution log: a list of ``[load nid, store nid]``."""
    if isinstance(value, list) and all(
        isinstance(step, list)
        and len(step) == 2
        and type(step[0]) is int
        and type(step[1]) is int
        for step in value
    ):
        return tuple(tuple(step) for step in value)
    raise ValueError("holds a malformed resolution log")


def behavior_records(executions) -> tuple:
    """What a cache entry keeps of each execution: its resolution log and
    its final registers as sorted ``(thread, register, value)`` triples."""
    return tuple(
        (
            execution.resolutions,
            tuple(
                sorted(
                    (thread, register, value)
                    for (thread, register), value in execution.final_registers().items()
                )
            ),
        )
        for execution in executions
    )


def encode_entry(request: dict, stats, records: tuple) -> bytes:
    """A cache entry's payload: the request, its key, ``stats`` and the
    :func:`behavior_records`."""
    return _encode_record(request, stats, behaviors=records)


def decode_entry(payload: bytes, key: bytes) -> tuple:
    """``(request, stats, records)`` of the cache entry stored under
    ``key``.  Raises :class:`ValueError` naming the problem."""
    record = _decode_record(payload, behaviors=list)
    if record["key"] != key.hex():
        raise ValueError("fails key verification (payload is for a different request)")
    return record["request"], record["stats"], tuple(map(_behavior, record["behaviors"]))


def _behavior(value) -> tuple:
    """One stored ``[log, final registers]`` pair."""
    if isinstance(value, list) and len(value) == 2:
        log, finals = value
        if isinstance(finals, list) and all(
            isinstance(final, list)
            and len(final) == 3
            and isinstance(final[0], str)
            and isinstance(final[1], str)
            and isinstance(final[2], (int, str))
            for final in finals
        ):
            return _log(log), tuple(tuple(final) for final in finals)
    raise ValueError("holds a malformed behavior")


def encode_checkpoint(request: dict, stats, dedup: bool, seen, worklist, finished) -> bytes:
    """A checkpoint's payload: the request, its key, ``stats``,
    ``dedup``, the ``seen`` dedup digests in hex, and the resolution logs
    of the ``worklist`` and ``finished`` executions."""
    return _encode_record(
        request,
        stats,
        dedup=dedup,
        seen=sorted(digest.hex() for digest in seen),
        worklist=[execution.resolutions for execution in worklist],
        finished=[execution.resolutions for execution in finished],
    )


def decode_checkpoint(payload: bytes) -> dict:
    """The fields of a checkpoint's payload, ``seen`` as a set of
    digests and ``worklist`` and ``finished`` as resolution logs.  Raises
    :class:`ValueError` naming the problem."""
    record = _decode_record(payload, dedup=bool, seen=list, worklist=list, finished=list)
    if not all(isinstance(digest, str) for digest in record["seen"]):
        raise ValueError("holds a malformed dedup digest")
    record["seen"] = {bytes.fromhex(digest) for digest in record["seen"]}
    record["worklist"] = [_log(log) for log in record["worklist"]]
    record["finished"] = [_log(log) for log in record["finished"]]
    return record


def replay_logs(program, model, max_nodes_per_thread: int, logs) -> list[Execution]:
    """Rebuild one execution per resolution log, in the order given.

    The logs are replayed in sorted order down one stack of executions,
    so a prefix shared with the previous log is not replayed again: each
    step copies the execution of the step before it, as the search did.
    Raises :class:`~repro.errors.GraphError` for a step that names no
    unresolved load or no visible store at its address, and whatever
    :meth:`~repro.core.execution.Execution.resolve_load` raises for an
    inconsistent choice."""
    executions: list = [None] * len(logs)
    stack = [Execution.initial(program, model, max_nodes_per_thread)]
    previous: tuple = ()
    for index in sorted(range(len(logs)), key=logs.__getitem__):
        log = logs[index]
        shared = 0
        for before, step in zip(previous, log):
            if before != step:
                break
            shared += 1
        del stack[shared + 1 :]
        for load_nid, store_nid in log[shared:]:
            child = stack[-1].copy()
            _replay_step(child, load_nid, store_nid)
            stack.append(child)
        executions[index] = stack[-1]
        previous = log
    return executions


def _replay_step(execution: Execution, load_nid: int, store_nid: int) -> None:
    nodes = execution.graph.nodes
    load = nodes[load_nid] if 0 <= load_nid < len(nodes) else None
    store = nodes[store_nid] if 0 <= store_nid < len(nodes) else None
    if load is None or not load.reads_memory or load.executed or load.addr is None:
        raise GraphError(
            f"the log resolves n{load_nid}, which is not an unresolved load "
            f"with a known address"
        )
    if store is None or not store.is_visible_store or store.addr != load.addr:
        raise GraphError(
            f"the log reads n{load_nid} from n{store_nid}, which is not a "
            f"visible store at {load.addr!r}"
        )
    execution.resolve_load(load_nid, store_nid)
