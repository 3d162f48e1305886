"""The service worker pool: checkpointed enumeration slices.

A job never runs as one opaque blob of work.  The pool drives it in
*slices* — each slice ships to a worker process, explores at most
``slice_behaviors`` more behaviors through the ordinary
:class:`~repro.core.enumerate.EnumerationLimits` budget machinery, and
atomically saves an :class:`~repro.core.enumerate.EnumerationCheckpoint`
before returning.  This one structure buys every robustness property:

* **crash-safety** — after ``kill -9`` the job resumes from its last
  durable checkpoint; PR 1's resume semantics guarantee the final
  behavior set is identical to an uninterrupted run;
* **worker-crash containment** — a died worker surfaces as
  :class:`~concurrent.futures.process.BrokenProcessPool`; the pool
  rebuilds the executor and retries from the checkpoint, at most
  ``retries`` times, then **quarantines** the job with a clear error
  instead of looping forever;
* **deadlines** — the driver checks the injectable clock between slices
  and hands each slice only the remaining budget;
* **cancellation** — a :class:`~repro.core.enumerate.CancellationToken`
  is polled between slices (and inside them when running inline).

``workers=0`` runs slices inline in the calling thread — no processes,
same code path — which tests and the fault injector use.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.core.enumerate import (
    CancellationToken,
    EnumerationCheckpoint,
    ExhaustionReason,
    enumerate_behaviors,
    resume_enumeration,
)
from repro.errors import ReproError
from repro.isa.assembler import assemble
from repro.models.registry import get_model
from repro.service.jobs import canonical_result, limits_from_dict


def _run_slice(payload: dict) -> dict:
    """One bounded enumeration slice.  Module-level so it pickles into a
    worker process; also called inline when ``workers=0``.

    Returns ``{"status": "partial"|"done", "explored": n, ...}`` — on
    ``done`` the canonical result rides along; on ``partial`` a
    checkpoint has been durably saved at ``checkpoint_path`` first.
    """
    source = payload["source"]
    model = get_model(payload["model"])
    limits = limits_from_dict(payload["limits"])
    checkpoint_path = Path(payload["checkpoint_path"])
    slice_budget = payload["slice_budget"]
    slice_deadline = payload.get("slice_deadline")
    token = payload.get("token")
    cache_dir = payload.get("cache_dir")
    cache = None
    if cache_dir is not None:
        from repro.cache import BehaviorCache

        cache = BehaviorCache.shared(cache_dir)

    checkpoint = None
    if checkpoint_path.exists():
        try:
            checkpoint = EnumerationCheckpoint.load(checkpoint_path)
        except ReproError:
            # Unreadable/foreign-version checkpoint: degrade by starting
            # the enumeration over rather than failing the job.
            checkpoint = None

    # Cache consultation happens on the first slice only (a checkpoint
    # means partial work this key has never finished); the key is the
    # *job's* full limits — slices are an implementation detail that the
    # resume semantics make behavior-invisible.
    if checkpoint is None and cache is not None:
        replayed = cache.replay(assemble(source).program, model, limits)
        if replayed is not None:
            return {
                "status": "done",
                "explored": replayed.stats.explored,
                "result": canonical_result(replayed),
                "cached": True,
            }

    explored_base = checkpoint.stats.explored if checkpoint is not None else 0
    slice_cap = min(limits.max_behaviors, explored_base + slice_budget)
    slice_limits = replace(
        limits, max_behaviors=slice_cap, deadline_seconds=slice_deadline
    )
    if checkpoint is not None:
        result = resume_enumeration(checkpoint, slice_limits, token=token)
    else:
        program = assemble(source).program
        result = enumerate_behaviors(program, model, slice_limits, token=token)

    explored = result.stats.explored
    if result.complete:
        if cache is not None:
            cache.memoize(result, limits)
        return {
            "status": "done",
            "explored": explored,
            "result": canonical_result(result),
        }
    exhausted_slice_budget = (
        result.reason is ExhaustionReason.BEHAVIOR_BUDGET
        and explored < limits.max_behaviors
    )
    if exhausted_slice_budget:
        result.checkpoint.save(checkpoint_path)
        return {"status": "partial", "explored": explored}
    if result.reason is ExhaustionReason.CANCELLED:
        result.checkpoint.save(checkpoint_path)
        return {"status": "cancelled", "explored": explored}
    if result.reason is ExhaustionReason.DEADLINE:
        # The slice deadline is the job's remaining budget: save the
        # checkpoint so a restart under a fresh deadline can resume,
        # and let the driver decide (job deadline vs user deadline).
        result.checkpoint.save(checkpoint_path)
        return {"status": "deadline", "explored": explored}
    # A real user budget (behavior count, memory) exhausted: the job is
    # finished with an honestly-labeled partial result.
    return {
        "status": "done",
        "explored": explored,
        "result": canonical_result(result),
        "reason": result.reason.value,
    }


@dataclass
class JobOutcome:
    """What :meth:`WorkerPool.run_job` resolved a job to."""

    status: str  #: "completed" | "failed" | "quarantined" | "cancelled"
    result: dict | None = None
    error: str = ""
    explored: int = 0
    attempts: int = 1


class WorkerPool:
    """A bounded pool of enumeration workers shared by all jobs."""

    def __init__(
        self,
        workers: int = 1,
        slice_behaviors: int = 500,
        retries: int = 1,
        slice_delay: float = 0.0,
        clock: Callable[[], float] | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        self.workers = workers
        self.slice_behaviors = max(1, slice_behaviors)
        self.retries = retries
        self.slice_delay = slice_delay
        self.clock = clock or time.monotonic
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None

    # -- executor lifecycle --------------------------------------------

    def _get_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            return self._executor

    def _discard_executor(self, broken: ProcessPoolExecutor) -> None:
        """Drop a broken executor (a crashed worker poisons the whole
        pool); the next slice lazily builds a fresh one."""
        with self._lock:
            if self._executor is broken:
                self._executor = None
        broken.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None

    # -- the fault-injection seam --------------------------------------

    def _submit_slice(self, payload: dict) -> dict:
        """Run one slice, in a worker process (or inline for
        ``workers=0``).  The service fault injector patches this method
        to simulate worker death mid-job."""
        if self.workers <= 0:
            return _run_slice(payload)
        executor = self._get_executor()
        shipped = dict(payload)
        shipped.pop("token", None)  # threading primitives don't pickle
        try:
            return executor.submit(_run_slice, shipped).result()
        except BrokenProcessPool:
            self._discard_executor(executor)
            raise

    # -- the job driver -------------------------------------------------

    def run_job(
        self,
        source: str,
        model: str,
        limits: dict,
        deadline_seconds: float | None,
        checkpoint_path: str | Path,
        token: CancellationToken | None = None,
        progress: Callable[[int], None] | None = None,
    ) -> JobOutcome:
        """Drive one job to a terminal outcome (blocking; called from a
        worker thread of the server, or directly by tests)."""
        checkpoint_path = Path(checkpoint_path)
        start = self.clock()
        attempts = 1
        explored = 0
        while True:
            if token is not None and token.cancelled:
                return JobOutcome(
                    status="cancelled", explored=explored, attempts=attempts
                )
            slice_deadline: float | None = None
            if deadline_seconds is not None:
                slice_deadline = deadline_seconds - (self.clock() - start)
                if slice_deadline <= 0:
                    return JobOutcome(
                        status="failed",
                        error=f"deadline of {deadline_seconds}s exceeded",
                        explored=explored,
                        attempts=attempts,
                    )
            payload = {
                "source": source,
                "model": model,
                "limits": limits,
                "checkpoint_path": str(checkpoint_path),
                "slice_budget": self.slice_behaviors,
                "slice_deadline": slice_deadline,
                "token": token,
                "cache_dir": self.cache_dir,
            }
            try:
                outcome = self._submit_slice(payload)
            except BrokenProcessPool:
                attempts += 1
                if attempts > self.retries + 1:
                    return JobOutcome(
                        status="quarantined",
                        error=(
                            f"worker process crashed {attempts - 1} times "
                            f"(retry budget {self.retries} exhausted); job "
                            f"quarantined — last checkpoint kept at "
                            f"{checkpoint_path.name}"
                        ),
                        explored=explored,
                        attempts=attempts,
                    )
                continue  # retry resumes from the last saved checkpoint
            except ReproError as exc:
                return JobOutcome(
                    status="failed",
                    error=str(exc),
                    explored=explored,
                    attempts=attempts,
                )

            explored = outcome.get("explored", explored)
            if outcome["status"] == "done":
                self._cleanup_checkpoint(checkpoint_path)
                result = outcome["result"]
                if "reason" in outcome:
                    result = dict(result)
                    result["reason"] = outcome["reason"]
                return JobOutcome(
                    status="completed",
                    result=result,
                    explored=explored,
                    attempts=attempts,
                )
            if outcome["status"] == "cancelled":
                return JobOutcome(
                    status="cancelled", explored=explored, attempts=attempts
                )
            if outcome["status"] == "deadline":
                # The slice hit the wall clock; loop back — the driver's
                # own deadline check above decides whether the job is
                # out of time or may continue.
                if deadline_seconds is None:
                    # User-specified enumeration deadline (inside
                    # limits); treat like any other exhausted budget.
                    return JobOutcome(
                        status="failed",
                        error="enumeration deadline exceeded",
                        explored=explored,
                        attempts=attempts,
                    )
                continue
            # "partial": a checkpoint was saved; report progress and go on.
            if progress is not None:
                progress(explored)
            if self.slice_delay > 0:
                time.sleep(self.slice_delay)

    @staticmethod
    def _cleanup_checkpoint(checkpoint_path: Path) -> None:
        try:
            checkpoint_path.unlink()
        except OSError:
            pass
