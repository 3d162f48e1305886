"""Outside-in span tracer for the ``repro`` engine.

The tracer wraps the public functions of each layer from outside the
program, so per-layer numbers come without editing ``src/``:

* a module-level function is rebound in every loaded ``repro.*`` module
  that holds it (the closure, for example, is called through
  ``repro.core.execution.close_store_atomicity``);
* a method is wrapped on its class;
* each fuzz oracle's ``check`` is wrapped by rebinding the ``ORACLES``
  tuple of the oracle registry;
* leaving the ``with`` block restores every original object, including
  bindings that modules imported while the tracer was active copied.

Every call becomes a span ``(id, parent, name, request, thread, start,
end)``.  Stacks are thread-local, because the job server runs
``WorkerPool.run_job`` on an executor thread, so a span's parent is always
on its own thread.  Spans stay in memory as tuples until the run ends;
:func:`write_spans` then writes them as gzipped JSON lines.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

#: ``hook(counts, result, args, kwargs)`` turns a call's return value into
#: exact work counters, recorded at the same boundary as the span.
Hook = Callable[[Counter, object, tuple, dict], None]


def _count_enumeration(counts: Counter, result, args, kwargs) -> None:
    stats = result.stats
    counts["core.enumerate.explored"] += stats.explored
    counts["core.enumerate.resolutions"] += stats.resolutions
    counts["core.enumerate.wasted"] += stats.duplicates + stats.rolled_back + stats.truncated
    counts["core.candidates.scanned"] += stats.candidates_scanned


def _count_solve(counts: Counter, result, args, kwargs) -> None:
    stats = result[1]
    counts["solver.proposals"] += stats.proposals
    counts["solver.infeasible"] += stats.infeasible
    counts["solver.conflicts"] += stats.conflicts


def _count_lookup(counts: Counter, result, args, kwargs) -> None:
    counts["cache.hits"] += result is not None


def _count_oracles(counts: Counter, result, args, kwargs) -> None:
    from repro.testing.oracles import ORACLES

    names = kwargs.get("names", args[1] if len(args) > 1 else None)
    counts["testing.oracles.selected"] += len(ORACLES) if names is None else len(names)
    counts["testing.oracles.skipped"] += len(result[1])


@dataclass(frozen=True)
class Target:
    """One public function or method to wrap: ``qualname`` is an
    attribute of ``module``, or ``Class.method``."""

    span: str
    module: str
    qualname: str
    hook: Hook | None = None


#: The engine's layers, as the in-process workloads call them.
ENGINE_TARGETS: tuple[Target, ...] = (
    Target("core.enumerate", "repro.core.enumerate", "enumerate_behaviors", _count_enumeration),
    Target("core.atomicity.close", "repro.core.atomicity", "close_store_atomicity"),
    Target("core.execution.copy", "repro.core.execution", "Execution.copy"),
    Target("core.execution.state_key", "repro.core.execution", "Execution.state_key"),
    Target("core.execution.loadstore_key", "repro.core.execution", "Execution.loadstore_key"),
    Target("core.execution.resolve_load", "repro.core.execution", "Execution.resolve_load"),
    Target("core.execution.stabilize", "repro.core.execution", "Execution.stabilize"),
    Target("core.execution.eligible_loads", "repro.core.execution", "Execution.eligible_loads"),
    Target("core.candidates", "repro.core.candidates", "candidate_stores"),
    Target("solver.encode", "repro.analysis.solver.encode", "encode_program"),
    Target("solver.sat.solve", "repro.analysis.solver.sat", "SatSolver.solve"),
    Target(
        "solver.solve", "repro.analysis.solver.behaviors", "solve_behaviors_with_stats",
        _count_solve,
    ),
    Target("cache.lookup", "repro.cache.store", "BehaviorCache.lookup", _count_lookup),
    Target("cache.store", "repro.cache.store", "BehaviorCache.store"),
    Target("testing.fuzzgen", "repro.testing.fuzzgen", "generate_program"),
    Target("testing.oracles", "repro.testing.oracles", "run_oracles", _count_oracles),
    Target("wal.append", "repro.service.wal", "WriteAheadLog.append"),
    Target("operational.run_sc", "repro.operational.sc", "run_sc"),
    Target("operational.run_store_buffer", "repro.operational.storebuffer", "run_store_buffer"),
    Target("operational.run_dataflow", "repro.operational.dataflow", "run_dataflow"),
    Target("static.compute_static_facts", "repro.analysis.static.dataflow", "compute_static_facts"),
    Target("static.analyze_program", "repro.analysis.static.conflict", "analyze_program"),
    Target("isa.assemble", "repro.isa.assembler", "assemble"),
)

#: The job server's request path; its worker processes are not traced.
SERVER_TARGETS: tuple[Target, ...] = (
    Target("wal.append", "repro.service.wal", "WriteAheadLog.append"),
    Target("ratelimit.check", "repro.service.ratelimit", "RateLimiter.check"),
    Target("cache.lookup", "repro.cache.store", "BehaviorCache.lookup", _count_lookup),
    Target("pool.run_job", "repro.service.pool", "WorkerPool.run_job"),
    Target("isa.assemble", "repro.isa.assembler", "assemble"),
)

#: Oracle checks are spans named ``ORACLE_PREFIX + oracle.name``.
ORACLE_PREFIX = "testing.oracle."


class Span(NamedTuple):
    sid: int
    parent: int  #: -1 for a root span
    name: str
    request: int  #: the benchmark's request id, inherited from the parent
    thread: int
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Install with ``with Tracer(targets) as tracer:``; read
    :meth:`spans` and :attr:`counts` afterwards."""

    def __init__(self, targets: tuple[Target, ...] = ENGINE_TARGETS, oracles: bool = True):
        self.targets = targets
        self.oracles = oracles
        self.counts: Counter = Counter()
        self._raw: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads = itertools.count()
        self._restore: list[tuple[object, str, object]] = []
        self._original_of: dict[int, object] = {}  # id(replacement) -> original
        self._keep: list[object] = []  # keeps the ids above unique

    # -- spans ------------------------------------------------------------

    def _thread_state(self) -> list:
        """``[stack, request, thread]`` of the calling thread."""
        local = self._local
        if not hasattr(local, "state"):
            local.state = [[], -1, next(self._threads)]
        return local.state

    def set_request(self, request: int) -> None:
        """Tag the calling thread's next spans with ``request``."""
        self._thread_state()[1] = request

    def _wrap(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        local = self._local
        ids = self._ids
        append = self._raw.append
        counts = self.counts
        thread_state = self._thread_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = thread_state()
            stack = state[0]
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                append((sid, stack[-1] if stack else -1, name, state[1], state[2], start, end))
            if hook is not None:
                hook(counts, result, args, kwargs)
            return result

        return traced

    def spans(self) -> list[Span]:
        """Every finished span in id order; a span recorded without a
        request id inherits its parent's."""
        spans = sorted(map(Span._make, self._raw), key=lambda span: span.sid)
        request_of: dict[int, int] = {}
        for index, span in enumerate(spans):
            if span.request < 0 and span.parent >= 0:
                spans[index] = span._replace(request=request_of.get(span.parent, -1))
            request_of[span.sid] = spans[index].request
        return spans

    # -- install / restore ------------------------------------------------

    def __enter__(self) -> "Tracer":
        replacements: dict[int, object] = {}
        for target in self.targets:
            module = importlib.import_module(target.module)
            owner_name, _, attribute = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attribute]
                wrapper = self._wrap(target.span, original, target.hook)
                self._bind(owner, attribute, original, wrapper)
            else:
                original = getattr(module, attribute)
                replacements[id(original)] = self._wrap(target.span, original, target.hook)
        if self.oracles:
            registry = importlib.import_module("repro.testing.oracles").ORACLES
            replacements[id(registry)] = tuple(
                dataclasses.replace(
                    oracle, check=self._wrap(ORACLE_PREFIX + oracle.name, oracle.check, None)
                )
                for oracle in registry
            )
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                replacement = replacements.get(id(value))
                if replacement is not None:
                    self._bind(module, attribute, value, replacement)
        return self

    def _bind(self, owner, attribute: str, original, replacement) -> None:
        setattr(owner, attribute, replacement)
        self._restore.append((owner, attribute, original))
        self._original_of[id(replacement)] = original
        self._keep.append(replacement)

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()
        # Modules imported while tracing may have copied a wrapper.
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                original = self._original_of.get(id(value))
                if original is not None and value is not original:
                    setattr(module, attribute, original)


# -- analysis ----------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover
    (the union of the children's intervals, clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.sid] = span.seconds - covered
    return result


@dataclass
class LayerTotal:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


def summarize(spans: list[Span]) -> dict[str, LayerTotal]:
    """Calls, busy seconds and self seconds per span name."""
    own = self_times(spans)
    totals: dict[str, LayerTotal] = defaultdict(LayerTotal)
    for span in spans:
        total = totals[span.name]
        total.calls += 1
        total.seconds += span.seconds
        total.self_seconds += own[span.sid]
    return dict(totals)


def seconds_under(spans: list[Span], names: set[str], ancestor: str) -> float:
    """Busy seconds of the outermost spans named in ``names`` that run
    inside an ``ancestor`` span (nested ``names`` spans count once)."""
    name_of: dict[int, str] = {}
    in_ancestor: dict[int, bool] = {}
    in_names: dict[int, bool] = {}
    seconds = 0.0
    for span in spans:  # id order: parents come first
        parent = span.parent
        under = in_ancestor.get(parent, False) or name_of.get(parent) == ancestor
        nested = in_names.get(parent, False) or name_of.get(parent) in names
        name_of[span.sid] = span.name
        in_ancestor[span.sid] = under
        in_names[span.sid] = nested
        if under and not nested and span.name in names:
            seconds += span.seconds
    return seconds


# -- span files --------------------------------------------------------------


def write_spans(path: Path, spans: list[Span], counts: Counter) -> None:
    """Gzipped JSON lines: one ``{"counts": ...}`` header, then one line
    per span with its self time, times relative to the first span."""
    own = self_times(spans)
    origin = min((span.start for span in spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.write(json.dumps({"counts": dict(counts)}, sort_keys=True) + "\n")
        for span in spans:
            handle.write(
                f'{{"id":{span.sid},"parent":{span.parent},"name":"{span.name}",'
                f'"request":{span.request},"thread":{span.thread},'
                f'"start":{span.start - origin:.7f},"end":{span.end - origin:.7f},'
                f'"self":{own[span.sid]:.7f}}}\n'
            )


def load_spans(path: Path) -> tuple[list[Span], Counter]:
    """Read a file written by :func:`write_spans`."""
    spans = []
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        counts = Counter(json.loads(handle.readline())["counts"])
        for line in handle:
            row = json.loads(line)
            spans.append(
                Span(row["id"], row["parent"], row["name"], row["request"], row["thread"],
                     row["start"], row["end"])
            )
    spans.sort(key=lambda span: span.sid)
    return spans, counts
