"""Experiment infrastructure: claims, results, node lookup helpers.

Each experiment module regenerates one paper artifact (a figure or a
derived table) and checks the paper's qualitative claims about it.  A
claim records what the paper asserts, what we measured, and whether they
agree — feeding both the test suite and EXPERIMENTS.md.
"""

from __future__ import annotations

import threading
import time
import traceback
import warnings
from dataclasses import dataclass, field

from repro.errors import ReproError, StuckBehaviorWarning
from repro.core.enumerate import EnumerationResult
from repro.core.execution import Execution
from repro.core.node import Node


@dataclass(frozen=True)
class Claim:
    """One checkable assertion from the paper."""

    description: str  #: what the paper claims
    expected: object  #: the paper's value
    observed: object  #: what we measured

    @property
    def holds(self) -> bool:
        return self.expected == self.observed

    def __str__(self) -> str:
        mark = "PASS" if self.holds else "FAIL"
        return f"[{mark}] {self.description}: expected {self.expected!r}, observed {self.observed!r}"


@dataclass
class ExperimentResult:
    """The outcome of regenerating one paper artifact."""

    experiment_id: str
    title: str
    claims: list[Claim] = field(default_factory=list)
    details: str = ""  #: rendered tables / graphs for the report

    def claim(self, description: str, expected: object, observed: object) -> Claim:
        entry = Claim(description, expected, observed)
        self.claims.append(entry)
        return entry

    @property
    def passed(self) -> bool:
        return all(claim.holds for claim in self.claims)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"== {self.experiment_id}: {self.title} [{status}] =="]
        lines.extend(f"  {claim}" for claim in self.claims)
        return "\n".join(lines)


@dataclass
class ExperimentOutcome:
    """One experiment's quarantined batch outcome.

    A failing or crashing experiment becomes an ``ERROR`` row carrying
    its traceback instead of aborting the whole batch; notes collect
    engine warnings (e.g. stuck behaviors) observed during the run.
    """

    experiment_id: str
    title: str
    status: str  #: "PASS" | "FAIL" | "ERROR"
    result: ExperimentResult | None = None
    error: str = ""  #: traceback text (ERROR rows)
    attempts: int = 1
    duration_seconds: float = 0.0
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def summary(self) -> str:
        if self.result is not None:
            text = self.result.summary()
        else:
            first_line = self.error.strip().splitlines()[-1] if self.error else "?"
            text = f"== {self.experiment_id}: {self.title} [ERROR] ==\n  {first_line}"
        for note in self.notes:
            text += f"\n  [FAIL-NOTE] {note}"
        return text

    @staticmethod
    def from_result(result: ExperimentResult, **kwargs) -> "ExperimentOutcome":
        # A stuck-behavior note marks an engine bug, so it demotes an
        # otherwise-passing experiment.
        passed = result.passed and not kwargs.get("notes")
        return ExperimentOutcome(
            experiment_id=result.experiment_id,
            title=result.title,
            status="PASS" if passed else "FAIL",
            result=result,
            **kwargs,
        )


def is_transient(exc: BaseException) -> bool:
    """Classify a failure as transient (worth one retry): allocation or
    OS-level pressure, or anything flagged ``transient`` (the fault
    injector marks its exceptions so)."""
    return isinstance(exc, (MemoryError, OSError)) or bool(
        getattr(exc, "transient", False)
    )


def run_isolated(
    module,
    deadline_seconds: float | None = None,
    retries: int = 1,
) -> ExperimentOutcome:
    """Run one experiment module in isolation.

    The experiment executes in a worker thread so a hang is bounded by
    ``deadline_seconds`` (the thread is abandoned on timeout — Python
    cannot preempt it — and the batch moves on).  A transient failure is
    retried up to ``retries`` times; persistent failures and timeouts
    are quarantined as ``ERROR`` outcomes with the traceback attached.
    :class:`StuckBehaviorWarning` emitted during the run is surfaced as
    a FAIL-style note on the outcome.
    """
    experiment_id = getattr(module, "EXPERIMENT_ID", module.__name__.rsplit(".", 1)[-1])
    title = getattr(module, "TITLE", experiment_id)

    start = time.monotonic()
    attempts = 0
    last_error = ""
    while attempts <= retries:
        attempts += 1
        box: dict[str, object] = {}

        def target() -> None:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    box["result"] = module.run()
                except BaseException as exc:  # quarantined, not re-raised
                    box["error"] = exc
                    box["traceback"] = traceback.format_exc()
                box["warnings"] = caught

        worker = threading.Thread(
            target=target, name=f"experiment-{experiment_id}", daemon=True
        )
        worker.start()
        worker.join(deadline_seconds)
        duration = time.monotonic() - start

        if worker.is_alive():
            return ExperimentOutcome(
                experiment_id=experiment_id,
                title=title,
                status="ERROR",
                error=(
                    f"TimeoutError: experiment exceeded its {deadline_seconds}s "
                    f"deadline (worker thread abandoned)"
                ),
                attempts=attempts,
                duration_seconds=duration,
            )

        notes = tuple(
            f"stuck behaviors reported: {w.message}"
            for w in box.get("warnings", ())
            if isinstance(w.message, StuckBehaviorWarning)
        )
        if "result" in box:
            return ExperimentOutcome.from_result(
                box["result"],
                attempts=attempts,
                duration_seconds=duration,
                notes=notes,
            )
        last_error = str(box.get("traceback", ""))
        if not is_transient(box.get("error")) or attempts > retries:
            break

    return ExperimentOutcome(
        experiment_id=experiment_id,
        title=title,
        status="ERROR",
        error=last_error,
        attempts=attempts,
        duration_seconds=time.monotonic() - start,
    )


@dataclass(frozen=True)
class QuarantinedItem:
    """Placeholder result for an item whose worker process died.

    With ``quarantine=True``, :func:`parallel_map` puts one of these in
    the poisoned item's slot instead of failing the whole run; ``error``
    says what happened and ``item`` identifies the work unit.
    """

    index: int
    item: object
    error: str

    def __str__(self) -> str:
        return f"[QUARANTINED item {self.index}: {self.error}]"


def _retry_in_fresh_pool(function, item):
    """Re-run one item in its own single-worker pool, so a poisoned item
    can only break its private pool — never the batch or this process."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=1) as pool:
        return pool.submit(function, item).result()


def parallel_map(function, items, jobs: int = 1, *, quarantine: bool = False) -> list:
    """Map ``function`` over ``items``, preserving order, optionally
    fanning the calls across ``jobs`` worker processes.

    ``jobs <= 1`` (or a single item) runs serially in-process with no
    pool overhead.  ``function`` must be a module-level callable and the
    items and results picklable — the batch runner and the ``--jobs``
    CLI paths satisfy this by shipping module names / (test, model) name
    pairs rather than live objects.

    A worker process dying (segfault, OOM kill, ``os._exit``) poisons a
    shared pool: every in-flight future raises ``BrokenProcessPool`` and
    naively the whole batch is lost.  Instead, the affected items are
    retried serially, each in its own fresh single-worker pool, so only
    the genuinely poisoned item fails again.  That item is then
    **quarantined**: with ``quarantine=True`` its slot holds a
    :class:`QuarantinedItem` describing the crash and every other result
    survives; by default a :class:`ReproError` naming the item is raised
    (still far better than ``BrokenProcessPool`` with no culprit).
    Ordinary exceptions propagate unchanged in both modes.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [function(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results: list = [None] * len(items)
    needs_retry: list[int] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(function, item) for item in items]
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                needs_retry.append(index)

    # Retry pass: the crash poisoned the shared pool, so every item that
    # was in flight is suspect; re-run them one at a time in isolation.
    for index in needs_retry:
        try:
            results[index] = _retry_in_fresh_pool(function, items[index])
        except BrokenProcessPool:
            error = (
                f"worker process crashed on item {index} "
                f"({items[index]!r}) even in an isolated retry"
            )
            if not quarantine:
                raise ReproError(
                    f"parallel_map: {error}; re-run with quarantine=True "
                    f"to keep the surviving results"
                ) from None
            results[index] = QuarantinedItem(index, items[index], error)
    return results


def node_at(execution: Execution, thread_name: str, index: int) -> Node:
    """The dynamic node at program position ``index`` of the named thread.

    For the straight-line figure programs, dynamic index == static index.
    """
    tid = execution.program.thread_index(thread_name)
    for node in execution.graph.nodes:
        if node.tid == tid and node.index == index:
            return node
    raise ReproError(f"no node at {thread_name}[{index}]")


def executions_where(result: EnumerationResult, **register_values) -> list[Execution]:
    """Executions whose final registers match, e.g. ``r5=3`` (register
    names must be unique across threads, as in the figure programs)."""
    matching = []
    for execution in result.executions:
        registers = {reg: value for (_, reg), value in execution.final_registers().items()}
        if all(registers.get(name) == value for name, value in register_values.items()):
            matching.append(execution)
    return matching


def register_projection(result: EnumerationResult, names: tuple[str, ...]) -> frozenset:
    """The outcome set projected onto the given (globally unique) register
    names — tuples in ``names`` order, with None for never-written."""
    projected = set()
    for execution in result.executions:
        registers = {reg: value for (_, reg), value in execution.final_registers().items()}
        projected.add(tuple(registers.get(name) for name in names))
    return frozenset(projected)


def loadstore_keys(result: EnumerationResult) -> list[str]:
    """The sorted ``repr(loadstore_key())`` list of a result: what two
    searches of one program must agree on to have the same behaviors."""
    return sorted(repr(execution.loadstore_key()) for execution in result.executions)
