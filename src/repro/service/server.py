"""The asyncio HTTP job server (stdlib only — no web framework).

Endpoints::

    POST   /jobs       submit {program, model, limits?, deadline_seconds?}
                       → 201 {"id": …} (or 200 for an idempotent replay)
    GET    /jobs/<id>  poll state/result
    GET    /jobs       list job summaries
    DELETE /jobs/<id>  cancel a queued/running job
    GET    /healthz    liveness + queue/worker counters

Robustness properties, in the order a request meets them:

1. **rate limiting** — per-account token bucket (``X-Account`` header);
   a dry bucket answers 429 with a deterministic ``Retry-After``;
2. **backpressure** — the job queue is bounded; a full queue answers
   429 + ``Retry-After`` instead of growing server memory;
3. **durability** — the submission is appended to the WAL *before* the
   201 goes out; if the WAL write fails the client gets 503 and the job
   was never accepted (no silent loss either way);
4. **idempotency** — job ids are content-addressed, so retrying a
   submission (e.g. after a timeout) lands on the same job;
5. **crash recovery** — on startup the WAL is replayed: terminal jobs
   keep their results, interrupted jobs re-queue and resume from their
   enumeration checkpoints (see :mod:`repro.service.pool`).

The HTTP layer itself is deliberately minimal: one request per
connection, ``Content-Length`` bodies only — the clients under our
control (``repro submit``, the test-suite client) speak exactly this.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.enumerate import CancellationToken
from repro.errors import ReproError, ServiceError, WALError
from repro.isa.assembler import assemble
from repro.models.registry import available_models, get_model
from repro.service.jobs import (
    TERMINAL_STATES,
    JobState,
    JobStore,
    canonical_result,
    job_key,
    limits_from_dict,
)
from repro.service.pool import WorkerPool
from repro.service.ratelimit import RateLimiter, retry_after_header
from repro.service.wal import WriteAheadLog, replay_wal

_MAX_BODY = 1 << 20  #: request-body cap (1 MiB) — backpressure, not a DoS fix
_MAX_HEADER = 64 * 1024


@dataclass
class ServiceConfig:
    """Everything tunable about a :class:`JobServer`."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 → ephemeral (the bound port is ``server.port``)
    wal_dir: str | Path = "service-data"
    workers: int = 1  #: enumeration worker processes (0 = inline slices)
    queue_limit: int = 64  #: bounded submission queue (backpressure)
    rate_capacity: float = 10  #: token-bucket burst per account
    rate_refill: float = 1.0  #: tokens per second per account
    max_accounts: int = 1024  #: LRU bound on live rate-limit buckets
    retries: int = 1  #: worker-crash retries before quarantine
    slice_behaviors: int = 500  #: behaviors per checkpointed slice
    slice_delay: float = 0.0  #: pause between slices (testing knob)
    completed_retention: int = 1000  #: terminal jobs kept queryable
    queue_retry_after: float = 1.0  #: Retry-After when the queue is full
    fsync: bool = True  #: durability vs. test speed
    #: behavior-cache directory; a submission whose (program, model,
    #: limits) is already cached completes instantly, skipping the pool
    cache_dir: str | Path | None = None
    clock: Callable[[], float] = field(default=time.monotonic)


class _HTTPError(Exception):
    def __init__(self, status: int, message: str, headers: dict | None = None):
        self.status = status
        self.message = message
        self.headers = headers or {}


_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class JobServer:
    """The long-running analysis service.  Use programmatically::

        server = JobServer(ServiceConfig(wal_dir=tmp))
        await server.start()
        … requests against 127.0.0.1:server.port …
        await server.stop()
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.wal_dir = Path(self.config.wal_dir)
        self.checkpoint_dir = self.wal_dir / "checkpoints"
        self.port: int | None = None
        self.store: JobStore | None = None
        self.wal: WriteAheadLog | None = None
        self.pool = WorkerPool(
            workers=self.config.workers,
            slice_behaviors=self.config.slice_behaviors,
            retries=self.config.retries,
            slice_delay=self.config.slice_delay,
            clock=self.config.clock,
            cache_dir=self.config.cache_dir,
        )
        self.cache = None
        if self.config.cache_dir is not None:
            from repro.cache import BehaviorCache

            self.cache = BehaviorCache.shared(self.config.cache_dir)
        self.limiter = RateLimiter(
            capacity=self.config.rate_capacity,
            refill_rate=self.config.rate_refill,
            clock=self.config.clock,
            max_accounts=self.config.max_accounts,
        )
        self._queue: asyncio.Queue[str] = asyncio.Queue()
        self._queued_ids: set[str] = set()
        self._tokens: dict[str, CancellationToken] = {}
        self._server: asyncio.base_events.Server | None = None
        self._worker_tasks: list[asyncio.Task] = []
        self._recovered: list[str] = []

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Recover from the WAL, compact it, bind the socket, and start
        the worker tasks."""
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        wal_path = self.wal_dir / "jobs.wal"
        records = replay_wal(wal_path)
        self.wal = WriteAheadLog(wal_path, fsync=self.config.fsync)
        self.store, requeue = JobStore.recover(
            self.wal, records, self.config.completed_retention
        )
        self.store.compact()
        self._recovered = list(requeue)
        for job_id in requeue:
            self.wal.append("requeued", job_id, {})
            self._enqueue(job_id)

        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        loop_workers = max(1, self.config.workers)
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(), name=f"job-worker-{i}")
            for i in range(loop_workers)
        ]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Ask in-flight jobs to stop at their next slice boundary; their
        # RUNNING state stays in the WAL, so a restart re-queues them and
        # they resume from their checkpoints.
        for token in self._tokens.values():
            token.cancel()
        for task in self._worker_tasks:
            task.cancel()
        for task in self._worker_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        # Join the executor threads driving pool.run_job, so no orphan
        # thread keeps writing checkpoints after we return.
        await asyncio.get_running_loop().shutdown_default_executor()
        self.pool.shutdown()
        if self.wal is not None:
            self.wal.close()

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    # -- queue plumbing -------------------------------------------------

    def _enqueue(self, job_id: str) -> None:
        self._queued_ids.add(job_id)
        self._queue.put_nowait(job_id)

    @property
    def backlog(self) -> int:
        return len(self._queued_ids)

    # -- the worker coroutines ------------------------------------------

    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job_id = await self._queue.get()
            self._queued_ids.discard(job_id)
            job = self.store.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                continue
            token = self._tokens.setdefault(job_id, CancellationToken())
            base_attempts = job.attempts
            try:
                self.store.transition(
                    job_id, JobState.RUNNING, attempts=base_attempts + 1
                )
            except WALError:
                # Can't durably record the start: leave the job queued
                # and back off rather than running unlogged work.
                self._enqueue(job_id)
                await asyncio.sleep(0.2)
                continue

            def report_progress(explored: int, job_id: str = job_id) -> None:
                loop.call_soon_threadsafe(self._record_progress, job_id, explored)

            outcome = await loop.run_in_executor(
                None,
                lambda: self.pool.run_job(
                    job.source,
                    job.model,
                    job.limits,
                    job.deadline_seconds,
                    self.checkpoint_dir / f"{job_id}.ckpt",
                    token=token,
                    progress=report_progress,
                ),
            )
            self._tokens.pop(job_id, None)
            state = {
                "completed": JobState.COMPLETED,
                "failed": JobState.FAILED,
                "quarantined": JobState.QUARANTINED,
                "cancelled": JobState.CANCELLED,
            }[outcome.status]
            try:
                self.store.transition(
                    job_id,
                    state,
                    result=outcome.result,
                    error=outcome.error,
                    explored=outcome.explored,
                    attempts=base_attempts + outcome.attempts,
                )
            except WALError:
                # The work is done but the result can't be made durable;
                # requeue so a later attempt (or a restart) redoes the
                # idempotent enumeration instead of losing the job.
                job.state = JobState.QUEUED
                self._enqueue(job_id)
                await asyncio.sleep(0.2)

    def _record_progress(self, job_id: str, explored: int) -> None:
        try:
            self.store.record_progress(job_id, explored)
        except WALError:
            pass  # progress records are advisory; the checkpoint is on disk

    # -- HTTP -----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, headers, body = await self._handle_request(reader)
        except _HTTPError as exc:
            status, headers, body = (
                exc.status,
                exc.headers,
                {"error": exc.message},
            )
        except Exception as exc:  # noqa: BLE001 — the server must not die
            status, headers, body = 500, {}, {"error": f"internal error: {exc}"}
        try:
            payload = json.dumps(body, sort_keys=True).encode()
            lines = [
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
                "Content-Type: application/json",
                f"Content-Length: {len(payload)}",
                "Connection: close",
            ]
            lines += [f"{name}: {value}" for name, value in headers.items()]
            writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict, dict]:
        try:
            request_line = await reader.readline()
        except (ConnectionError, OSError):
            raise _HTTPError(400, "connection dropped") from None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HTTPError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]

        headers: dict[str, str] = {}
        total = 0
        while True:
            line = await reader.readline()
            total += len(line)
            if total > _MAX_HEADER:
                raise _HTTPError(413, "headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            raise _HTTPError(413, f"body exceeds {_MAX_BODY} bytes")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _HTTPError(400, "truncated request body") from None

        return self._route(method, target, headers, body)

    def _route(
        self, method: str, target: str, headers: dict, body: bytes
    ) -> tuple[int, dict, dict]:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return 200, {}, self._health()
        if path == "/jobs":
            if method == "POST":
                return self._submit(headers, body)
            if method == "GET":
                return 200, {}, {"jobs": [
                    job.view()
                    for job in sorted(
                        self.store.jobs.values(), key=lambda j: j.submitted_seq
                    )
                ]}
            raise _HTTPError(405, f"{method} not allowed on /jobs")
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            if method == "GET":
                return self._status(job_id)
            if method == "DELETE":
                return self._cancel(job_id)
            raise _HTTPError(405, f"{method} not allowed on {path}")
        raise _HTTPError(404, f"no route for {method} {path}")

    def _health(self) -> dict:
        counts = self.store.counts()
        return {
            "status": "ok",
            "backlog": self.backlog,
            "jobs": counts,
            "recovered": len(self._recovered),
            "wal_seq": self.wal.last_seq,
        }

    def _submit(self, headers: dict, body: bytes) -> tuple[int, dict, dict]:
        account = headers.get("x-account", "anonymous")

        # 1. rate limit — cheapest check first, before parsing anything.
        allowed, retry_after = self.limiter.check(account)
        if not allowed:
            raise _HTTPError(
                429,
                f"rate limit exceeded for account {account!r}; "
                f"retry in {retry_after:.2f}s",
                {"Retry-After": retry_after_header(retry_after)},
            )

        # 2. parse + validate the request.
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(400, f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HTTPError(400, "body must be a JSON object")
        source = payload.get("program")
        model = payload.get("model", "weak")
        if not isinstance(source, str) or not source.strip():
            raise _HTTPError(400, "missing or empty 'program' field")
        if model not in available_models():
            raise _HTTPError(
                400,
                f"unknown model {model!r}; available: "
                f"{', '.join(available_models())}",
            )
        get_model(model)
        limits = payload.get("limits") or {}
        deadline = payload.get("deadline_seconds")
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            raise _HTTPError(400, "'deadline_seconds' must be a positive number")
        try:
            enum_limits = limits_from_dict(limits)
            program = assemble(source).program
        except ServiceError as exc:
            raise _HTTPError(400, str(exc)) from None
        except ReproError as exc:
            raise _HTTPError(400, f"program does not assemble: {exc}") from None

        # 3. idempotency — the same content maps to the same job.
        key = job_key(source, model, limits)
        existing = self.store.get(key)
        if existing is not None:
            return 200, {}, existing.view()

        # 3b. behavior-cache fast path — a previously enumerated
        # (program, model, limits) completes instantly: the job is still
        # WAL-durable (submitted, then transitioned terminal) but never
        # queues, so it consumes no backpressure budget and no worker.
        if self.cache is not None:
            replayed = self.cache.replay(program, get_model(model), enum_limits)
            if replayed is not None:
                try:
                    job = self.store.submit(
                        account, source, model, limits, deadline, program.name
                    )
                    self.store.transition(
                        job.id, JobState.RUNNING, attempts=1
                    )
                    self.store.transition(
                        job.id,
                        JobState.COMPLETED,
                        result=canonical_result(replayed),
                        explored=replayed.stats.explored,
                    )
                except WALError as exc:
                    raise _HTTPError(
                        503, f"cannot persist submission: {exc}"
                    ) from None
                return 201, {}, self.store.get(job.id).view()

        # 4. backpressure — bounded queue, never unbounded memory.
        if self.backlog >= self.config.queue_limit:
            raise _HTTPError(
                429,
                f"job queue is full ({self.config.queue_limit} pending); "
                f"retry later",
                {"Retry-After": retry_after_header(self.config.queue_retry_after)},
            )

        # 5. durability — WAL append happens inside submit(), *before*
        # the job becomes visible or this 201 is sent.
        try:
            job = self.store.submit(
                account, source, model, limits, deadline, program.name
            )
        except WALError as exc:
            raise _HTTPError(503, f"cannot persist submission: {exc}") from None
        self._enqueue(job.id)
        return 201, {}, job.view()

    def _status(self, job_id: str) -> tuple[int, dict, dict]:
        job = self.store.get(job_id)
        if job is None:
            raise _HTTPError(404, f"no job {job_id!r}")
        return 200, {}, job.view()

    def _cancel(self, job_id: str) -> tuple[int, dict, dict]:
        job = self.store.get(job_id)
        if job is None:
            raise _HTTPError(404, f"no job {job_id!r}")
        if job.state in TERMINAL_STATES:
            return 200, {}, job.view()
        token = self._tokens.setdefault(job_id, CancellationToken())
        token.cancel()
        if job.state is JobState.QUEUED:
            try:
                self.store.transition(job_id, JobState.CANCELLED)
            except WALError as exc:
                raise _HTTPError(503, f"cannot persist cancellation: {exc}") from None
            self._tokens.pop(job_id, None)
        return 200, {}, self.store.get(job_id).view()


async def run_server(config: ServiceConfig) -> None:
    """Start a server and run until cancelled (the CLI entry point)."""
    server = JobServer(config)
    await server.start()
    print(
        f"serving on http://{config.host}:{server.port} "
        f"(wal={server.wal_dir}, workers={config.workers})",
        flush=True,
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
