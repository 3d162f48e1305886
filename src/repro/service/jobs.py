"""Job records, content-addressed keys, and the WAL-backed job store.

A job is one enumeration request: a litmus program source, a model name
and resource limits.  Its identity is *content-addressed* — a blake2b
digest of the canonical request — so re-submitting identical work is
idempotent: the server answers with the existing job instead of queuing
a duplicate (the same digest machinery the enumeration dedup layer uses).

:class:`JobStore` owns every state transition and appends each one to
the :class:`~repro.service.wal.WriteAheadLog` *before* applying it, so
the in-memory state is always reconstructible:
:meth:`JobStore.recover` replays the WAL and re-queues jobs that were
queued or running when the process died (their enumeration resumes from
the per-job :class:`~repro.core.enumerate.EnumerationCheckpoint` if one
was saved).  Completed-job retention is bounded: beyond
``completed_retention`` terminal jobs, the oldest are evicted — memory
and (after compaction) disk stay bounded no matter how long the server
runs.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field

from repro.core.enumerate import EnumerationLimits, EnumerationResult, outcome_sort_key
from repro.errors import ServiceError
from repro.service.wal import WALRecord, WriteAheadLog

_KEY_SIZE = 16  #: digest bytes in a job id (matches the dedup digests)


class JobState(str, enum.Enum):
    """Lifecycle of a job.  ``QUARANTINED`` is terminal failure after
    repeated worker crashes — the job is preserved for inspection but
    never retried again."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    QUARANTINED = "quarantined"
    CANCELLED = "cancelled"


TERMINAL_STATES = frozenset(
    {JobState.COMPLETED, JobState.FAILED, JobState.QUARANTINED, JobState.CANCELLED}
)


def job_key(source: str, model: str, limits: dict | None = None) -> str:
    """The content-addressed identity of a request.

    Whitespace-insensitive over the program source (line-stripped) so a
    resubmission with different indentation still deduplicates; the
    limits dict is canonicalized by sorted keys.
    """
    canonical_source = "\n".join(
        line.strip() for line in source.strip().splitlines() if line.strip()
    )
    canonical = json.dumps(
        [canonical_source, model, limits or {}],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(canonical.encode(), digest_size=_KEY_SIZE).hexdigest()


def limits_from_dict(data: dict | None) -> EnumerationLimits:
    """Build :class:`EnumerationLimits` from a request's limits dict,
    rejecting unknown fields with a clear client error."""
    data = dict(data or {})
    known = set(EnumerationLimits.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ServiceError(
            f"unknown limits field(s): {sorted(unknown)}; known: {sorted(known)}",
            status=400,
        )
    try:
        return EnumerationLimits(**data)
    except TypeError as exc:
        raise ServiceError(f"bad limits: {exc}", status=400) from exc


def canonical_result(result: EnumerationResult) -> dict:
    """The canonical JSON-able payload of a finished enumeration.

    Deterministic (sorted) so a resumed-after-crash run and a direct
    :func:`~repro.core.enumerate.enumerate_behaviors` call serialize to
    byte-identical JSON whenever their behavior sets agree.  Outcomes
    are listed in :func:`~repro.core.enumerate.outcome_sort_key` order,
    so a register that holds a number in one behavior and a location
    name in another sorts (numbers first) instead of raising.
    """
    outcomes = [
        [[thread, register, value] for thread, register, _, value in key]
        for key in sorted(map(outcome_sort_key, result.register_outcomes()))
    ]
    return {
        "complete": result.complete,
        "executions": len(result),
        "outcomes": outcomes,
    }


@dataclass
class Job:
    """One enumeration request and its current state."""

    id: str
    account: str
    source: str
    model: str
    limits: dict = field(default_factory=dict)
    deadline_seconds: float | None = None
    program_name: str = ""
    state: JobState = JobState.QUEUED
    attempts: int = 0
    explored: int = 0
    result: dict | None = None
    error: str = ""
    submitted_seq: int = 0

    def view(self) -> dict:
        """The JSON document ``GET /jobs/<id>`` serves."""
        view = {
            "id": self.id,
            "state": self.state.value,
            "account": self.account,
            "model": self.model,
            "program": self.program_name,
            "attempts": self.attempts,
            "explored": self.explored,
        }
        if self.deadline_seconds is not None:
            view["deadline_seconds"] = self.deadline_seconds
        if self.result is not None:
            view["result"] = self.result
        if self.error:
            view["error"] = self.error
        return view

    def snapshot(self) -> dict:
        """Everything needed to rebuild the job (compaction record)."""
        return {
            "account": self.account,
            "source": self.source,
            "model": self.model,
            "limits": self.limits,
            "deadline_seconds": self.deadline_seconds,
            "program_name": self.program_name,
            "state": self.state.value,
            "attempts": self.attempts,
            "explored": self.explored,
            "result": self.result,
            "error": self.error,
        }


class JobStore:
    """The WAL-backed authoritative map of jobs.

    Every mutation appends to the WAL first; if the append fails the
    mutation does not happen — the caller surfaces the failure (503)
    and the in-memory state still matches the durable state.
    """

    def __init__(
        self, wal: WriteAheadLog, completed_retention: int = 1000
    ) -> None:
        self.wal = wal
        self.completed_retention = completed_retention
        self.jobs: dict[str, Job] = {}
        self._terminal_order: list[str] = []

    # -- mutations ------------------------------------------------------

    def submit(
        self,
        account: str,
        source: str,
        model: str,
        limits: dict | None,
        deadline_seconds: float | None,
        program_name: str,
    ) -> Job:
        """Durably accept a new job (the caller has already checked for
        an existing job under the same key)."""
        job = Job(
            id=job_key(source, model, limits),
            account=account,
            source=source,
            model=model,
            limits=dict(limits or {}),
            deadline_seconds=deadline_seconds,
            program_name=program_name,
        )
        record = self.wal.append(
            "submitted",
            job.id,
            {
                "account": account,
                "source": source,
                "model": model,
                "limits": job.limits,
                "deadline_seconds": deadline_seconds,
                "program_name": program_name,
            },
        )
        job.submitted_seq = record.seq
        self.jobs[job.id] = job
        return job

    def transition(
        self,
        job_id: str,
        state: JobState,
        *,
        error: str = "",
        result: dict | None = None,
        attempts: int | None = None,
        explored: int | None = None,
    ) -> Job:
        job = self.jobs[job_id]
        data: dict = {"state": state.value}
        if error:
            data["error"] = error
        if result is not None:
            data["result"] = result
        if attempts is not None:
            data["attempts"] = attempts
        if explored is not None:
            data["explored"] = explored
        self.wal.append("state", job_id, data)
        self._apply_state(job, data)
        if job.state in TERMINAL_STATES:
            self._note_terminal(job_id)
        return job

    def record_progress(self, job_id: str, explored: int) -> None:
        """A checkpoint was durably saved for a running job; the WAL
        record makes the progress visible across a restart."""
        self.wal.append("progress", job_id, {"explored": explored})
        job = self.jobs.get(job_id)
        if job is not None:
            job.explored = explored

    # -- recovery -------------------------------------------------------

    @staticmethod
    def _apply_state(job: Job, data: dict) -> None:
        job.state = JobState(data["state"])
        if "error" in data:
            job.error = data["error"]
        if "result" in data:
            job.result = data["result"]
        if "attempts" in data:
            job.attempts = data["attempts"]
        if "explored" in data:
            job.explored = data["explored"]

    @classmethod
    def recover(
        cls,
        wal: WriteAheadLog,
        records: list[WALRecord],
        completed_retention: int = 1000,
    ) -> tuple["JobStore", list[str]]:
        """Rebuild a store from replayed WAL records.

        Returns the store plus the ids to re-queue, in original
        submission order: every job that was queued or running when the
        process died.  The caller appends the ``requeued`` transitions
        (so the *next* crash replays correctly too) and re-dispatches.
        """
        store = cls(wal, completed_retention)
        for record in records:
            if record.event == "submitted":
                data = record.data
                job = Job(
                    id=record.job_id,
                    account=data.get("account", "anonymous"),
                    source=data.get("source", ""),
                    model=data.get("model", ""),
                    limits=dict(data.get("limits") or {}),
                    deadline_seconds=data.get("deadline_seconds"),
                    program_name=data.get("program_name", ""),
                    submitted_seq=record.seq,
                )
                store.jobs[job.id] = job
            elif record.event == "snapshot":
                data = dict(record.data)
                state = JobState(data.pop("state", JobState.QUEUED.value))
                job = Job(id=record.job_id, **data)
                job.state = state
                job.submitted_seq = record.seq
                store.jobs[job.id] = job
            elif record.event == "state":
                job = store.jobs.get(record.job_id)
                if job is not None:
                    cls._apply_state(job, record.data)
            elif record.event == "progress":
                job = store.jobs.get(record.job_id)
                if job is not None:
                    job.explored = record.data.get("explored", job.explored)
            # Unknown events are ignored: a newer server's log replays
            # on an older one without losing the transitions it knows.

        requeue = [
            job.id
            for job in sorted(store.jobs.values(), key=lambda j: j.submitted_seq)
            if job.state in (JobState.QUEUED, JobState.RUNNING)
        ]
        for job_id in requeue:
            store.jobs[job_id].state = JobState.QUEUED
        for job in store.jobs.values():
            if job.state in TERMINAL_STATES:
                store._terminal_order.append(job.id)
        return store, requeue

    def compact(self) -> None:
        """Rewrite the WAL as one snapshot record per live job."""
        records = []
        for seq, job in enumerate(
            sorted(self.jobs.values(), key=lambda j: j.submitted_seq), start=1
        ):
            records.append(
                WALRecord(seq=seq, event="snapshot", job_id=job.id, data=job.snapshot())
            )
        self.wal.rewrite(records)

    # -- retention ------------------------------------------------------

    def _note_terminal(self, job_id: str) -> None:
        self._terminal_order.append(job_id)
        while len(self._terminal_order) > self.completed_retention:
            victim = self._terminal_order.pop(0)
            self.jobs.pop(victim, None)

    # -- queries --------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    def counts(self) -> dict:
        counts = {state.value: 0 for state in JobState}
        for job in self.jobs.values():
            counts[job.state.value] += 1
        return counts
