"""Tests for the analysis service: WAL durability, the job store and
recovery, rate limiting, backpressure, the worker pool's checkpointed
slices, idempotent submission, and the HTTP server end to end."""

import asyncio
import json
import threading
from pathlib import Path

import pytest

from repro.core.enumerate import CancellationToken, enumerate_behaviors
from repro.errors import ServiceError, WALError
from repro.isa.assembler import assemble
from repro.models.registry import get_model
from repro.service.jobs import (
    JobState,
    JobStore,
    canonical_result,
    job_key,
    limits_from_dict,
)
from repro.service.pool import WorkerPool, _run_slice
from repro.service.ratelimit import RateLimiter, TokenBucket, retry_after_header
from repro.service.server import JobServer, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.wal import WALRecord, WriteAheadLog, replay_wal

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

SB_SOURCE = """
test SB
init x=0 y=0

thread P0
    S x, 1
    r1 = L y

thread P1
    S y, 1
    r2 = L x
"""

HEAVY_SOURCE = """
test heavy3
init x=0 y=0 z=0

thread W
    S x, 1
    S y, 1

thread P
    r1 = L x
    r2 = L y
    S z, 1

thread Q
    r3 = L z
    r4 = L y
    r5 = L x
"""


# ----------------------------------------------------------------------
# WAL


class TestWriteAheadLog:
    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "jobs.wal", fsync=False)
        wal.append("submitted", "j1", {"model": "weak"})
        wal.append("state", "j1", {"state": "running"})
        wal.close()
        records = replay_wal(tmp_path / "jobs.wal")
        assert [r.event for r in records] == ["submitted", "state"]
        assert records[0].data == {"model": "weak"}
        assert [r.seq for r in records] == [1, 2]

    def test_missing_file_replays_empty(self, tmp_path):
        assert replay_wal(tmp_path / "absent.wal") == []

    def test_torn_tail_is_dropped(self, tmp_path):
        """A crash mid-append leaves a half-written last line; replay
        keeps every durable record and drops the torn one."""
        path = tmp_path / "jobs.wal"
        wal = WriteAheadLog(path, fsync=False)
        wal.append("submitted", "j1", {})
        wal.append("state", "j1", {"state": "running"})
        wal.close()
        blob = path.read_text()
        path.write_text(blob + blob.splitlines()[-1][: 20])  # torn record
        records = replay_wal(path)
        assert [r.event for r in records] == ["submitted", "state"]

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        """Reopening a log with a torn tail and appending must not leave
        the torn line mid-log, where replay would refuse it."""
        path = tmp_path / "jobs.wal"
        wal = WriteAheadLog(path, fsync=False)
        wal.append("submitted", "j1", {})
        wal.close()
        blob = path.read_text()
        path.write_text(blob + blob[:20])  # torn record
        wal = WriteAheadLog(path, fsync=False)
        wal.append("state", "j1", {"state": "running"})
        wal.close()
        assert [(r.seq, r.event) for r in replay_wal(path)] == [(1, "submitted"), (2, "state")]

    def test_corruption_mid_log_raises(self, tmp_path):
        path = tmp_path / "jobs.wal"
        wal = WriteAheadLog(path, fsync=False)
        wal.append("submitted", "j1", {})
        wal.append("state", "j1", {"state": "running"})
        wal.close()
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-5] + 'XXX"}'  # corrupt a non-tail record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WALError):
            replay_wal(path)

    def test_checksum_detects_bit_flip(self, tmp_path):
        path = tmp_path / "jobs.wal"
        wal = WriteAheadLog(path, fsync=False)
        wal.append("submitted", "j1", {"account": "alice"})
        wal.close()
        text = path.read_text().replace("alice", "mallory")
        path.write_text(text)
        assert replay_wal(path) == []  # sole (tail) record dropped

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "jobs.wal"
        wal = WriteAheadLog(path, fsync=False)
        wal.append("submitted", "j1", {})
        wal.close()
        wal2 = WriteAheadLog(path, fsync=False)
        record = wal2.append("state", "j1", {"state": "running"})
        wal2.close()
        assert record.seq == 2
        assert [r.seq for r in replay_wal(path)] == [1, 2]

    def test_rewrite_compacts_atomically(self, tmp_path):
        path = tmp_path / "jobs.wal"
        wal = WriteAheadLog(path, fsync=False)
        for i in range(10):
            wal.append("state", "j1", {"state": "running", "i": i})
        wal.rewrite([WALRecord(seq=1, event="snapshot", job_id="j1", data={})])
        wal.append("state", "j1", {"state": "completed"})
        wal.close()
        records = replay_wal(path)
        assert [r.event for r in records] == ["snapshot", "state"]


# ----------------------------------------------------------------------
# job identity + store


class TestJobKeys:
    def test_content_addressed_and_whitespace_insensitive(self):
        key = job_key(SB_SOURCE, "weak", {})
        indented = "\n".join("   " + line for line in SB_SOURCE.splitlines())
        assert job_key(indented, "weak", {}) == key

    def test_model_and_limits_change_the_key(self):
        base = job_key(SB_SOURCE, "weak", {})
        assert job_key(SB_SOURCE, "tso", {}) != base
        assert job_key(SB_SOURCE, "weak", {"max_behaviors": 10}) != base

    def test_limits_validation(self):
        assert limits_from_dict({"max_behaviors": 5}).max_behaviors == 5
        with pytest.raises(ServiceError) as info:
            limits_from_dict({"max_behaviours": 5})
        assert "unknown limits field" in str(info.value)


class TestJobStoreRecovery:
    def _store(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "jobs.wal", fsync=False)
        return JobStore(wal), wal

    def test_submit_is_durable_before_visible(self, tmp_path):
        store, wal = self._store(tmp_path)
        job = store.submit("alice", SB_SOURCE, "weak", {}, None, "SB")
        wal.close()
        records = replay_wal(tmp_path / "jobs.wal")
        assert records[0].event == "submitted"
        assert records[0].job_id == job.id

    def test_recovery_requeues_interrupted_jobs(self, tmp_path):
        store, wal = self._store(tmp_path)
        done = store.submit("a", SB_SOURCE, "weak", {}, None, "SB")
        store.transition(done.id, JobState.RUNNING)
        store.transition(
            done.id, JobState.COMPLETED, result={"executions": 4}, explored=9
        )
        running = store.submit("a", HEAVY_SOURCE, "weak", {}, None, "heavy3")
        store.transition(running.id, JobState.RUNNING, attempts=1)
        queued = store.submit("a", SB_SOURCE, "tso", {}, None, "SB")
        wal.close()

        records = replay_wal(tmp_path / "jobs.wal")
        wal2 = WriteAheadLog(tmp_path / "jobs.wal", fsync=False)
        recovered, requeue = JobStore.recover(wal2, records)
        wal2.close()
        assert requeue == [running.id, queued.id]  # submission order
        assert recovered.get(done.id).state is JobState.COMPLETED
        assert recovered.get(done.id).result == {"executions": 4}
        assert recovered.get(running.id).state is JobState.QUEUED
        assert recovered.get(running.id).attempts == 1  # attempts survive

    def test_compaction_preserves_state(self, tmp_path):
        store, wal = self._store(tmp_path)
        job = store.submit("a", SB_SOURCE, "weak", {}, None, "SB")
        store.transition(job.id, JobState.RUNNING)
        store.transition(job.id, JobState.COMPLETED, result={"executions": 4})
        store.compact()
        wal.close()
        records = replay_wal(tmp_path / "jobs.wal")
        assert [r.event for r in records] == ["snapshot"]
        wal2 = WriteAheadLog(tmp_path / "jobs.wal", fsync=False)
        recovered, requeue = JobStore.recover(wal2, records)
        wal2.close()
        assert requeue == []
        assert recovered.get(job.id).state is JobState.COMPLETED
        assert recovered.get(job.id).result == {"executions": 4}
        assert recovered.get(job.id).source == SB_SOURCE

    def test_terminal_retention_is_bounded(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "jobs.wal", fsync=False)
        store = JobStore(wal, completed_retention=2)
        ids = []
        for i in range(5):
            job = store.submit("a", SB_SOURCE + f"\n# v{i}\n", "weak", {}, None, "SB")
            store.transition(job.id, JobState.COMPLETED, result={})
            ids.append(job.id)
        wal.close()
        assert len(store.jobs) == 2
        assert store.get(ids[-1]) is not None
        assert store.get(ids[0]) is None


# ----------------------------------------------------------------------
# rate limiting


class TestRateLimiting:
    def test_bucket_allows_burst_then_throttles(self):
        bucket = TokenBucket(capacity=2, refill_rate=1.0, now=0.0)
        assert bucket.acquire(0.0) == (True, 0.0)
        assert bucket.acquire(0.0) == (True, 0.0)
        allowed, retry_after = bucket.acquire(0.0)
        assert not allowed
        assert retry_after == pytest.approx(1.0)

    def test_refill_is_deterministic(self):
        bucket = TokenBucket(capacity=2, refill_rate=0.5, now=0.0)
        bucket.acquire(0.0)
        bucket.acquire(0.0)
        allowed, retry_after = bucket.acquire(1.0)  # 0.5 tokens refilled
        assert not allowed
        assert retry_after == pytest.approx(1.0)  # (1 - 0.5) / 0.5
        assert bucket.acquire(2.0)[0] is True  # a full token by t=2

    def test_accounts_are_independent(self):
        clock = lambda: 0.0  # noqa: E731
        limiter = RateLimiter(capacity=1, refill_rate=1.0, clock=clock)
        assert limiter.check("alice")[0] is True
        assert limiter.check("alice")[0] is False
        assert limiter.check("bob")[0] is True

    def test_account_table_is_lru_bounded(self):
        limiter = RateLimiter(capacity=1, refill_rate=1.0, clock=lambda: 0.0, max_accounts=3)
        for i in range(50):
            limiter.check(f"account-{i}")
        assert limiter.accounts == 3

    def test_retry_after_header_rounds_up(self):
        assert retry_after_header(0.2) == "1"
        assert retry_after_header(1.0) == "1"
        assert retry_after_header(1.01) == "2"


# ----------------------------------------------------------------------
# worker pool


class TestWorkerPool:
    def test_inline_job_completes(self, tmp_path):
        pool = WorkerPool(workers=0, slice_behaviors=1000)
        outcome = pool.run_job(
            SB_SOURCE, "weak", {}, None, tmp_path / "sb.ckpt"
        )
        assert outcome.status == "completed"
        assert outcome.result["complete"] is True
        assert outcome.result["executions"] == 4

    @pytest.mark.parametrize("model", ["sc", "tso", "pso", "weak"])
    def test_slice_finishes_when_a_register_holds_an_address_or_a_number(
        self, tmp_path, model
    ):
        """P0's r2 reads q's initial value (the address z) in one
        behaviour and 0 in another: the result sorts the number first."""
        source = (CORPUS_DIR / "fz-dataflow-14-min.litmus").read_text()
        reply = _run_slice(
            {
                "source": source,
                "model": model,
                "limits": {},
                "checkpoint_path": str(tmp_path / "mixed.ckpt"),
                "slice_budget": 1000,
            }
        )
        assert reply["status"] == "done"
        assert reply["result"]["complete"] is True
        r2_values = [
            value
            for outcome in reply["result"]["outcomes"]
            for thread, register, value in outcome
            if (thread, register) == ("P0", "r2")
        ]
        assert r2_values == [0, "z"]

    def test_sliced_job_matches_direct_enumeration(self, tmp_path):
        """Many tiny checkpointed slices must produce the canonical
        result byte-identical to one uninterrupted run.  heavy3/weak
        explores 63 states, so 10-state slices make six of them."""
        pool = WorkerPool(workers=0, slice_behaviors=10)
        progress: list[int] = []
        outcome = pool.run_job(
            HEAVY_SOURCE, "weak", {}, None, tmp_path / "h.ckpt",
            progress=progress.append,
        )
        assert outcome.status == "completed"
        assert len(progress) > 2  # it really ran in slices
        assert progress == sorted(progress)
        direct = enumerate_behaviors(
            assemble(HEAVY_SOURCE).program, get_model("weak")
        )
        assert json.dumps(outcome.result, sort_keys=True) == json.dumps(
            canonical_result(direct), sort_keys=True
        )
        assert not (tmp_path / "h.ckpt").exists()  # cleaned up when done

    def test_user_budget_yields_partial_result(self, tmp_path):
        pool = WorkerPool(workers=0, slice_behaviors=25)
        outcome = pool.run_job(
            HEAVY_SOURCE, "weak", {"max_behaviors": 60}, None, tmp_path / "h.ckpt"
        )
        assert outcome.status == "completed"
        assert outcome.result["complete"] is False
        assert outcome.result["reason"] == "behavior-budget"
        assert outcome.explored == 60

    def test_cancellation_between_slices(self, tmp_path):
        pool = WorkerPool(workers=0, slice_behaviors=10)
        token = CancellationToken()
        calls = []

        def cancel_after_two(explored):
            calls.append(explored)
            if len(calls) == 2:
                token.cancel()

        outcome = pool.run_job(
            HEAVY_SOURCE, "weak", {}, None, tmp_path / "h.ckpt",
            token=token, progress=cancel_after_two,
        )
        assert outcome.status == "cancelled"

    def test_deadline_with_injected_clock(self, tmp_path):
        fake = {"now": 0.0}
        pool = WorkerPool(workers=0, slice_behaviors=10, clock=lambda: fake["now"])
        def advance(explored):
            fake["now"] += 10.0
        outcome = pool.run_job(
            HEAVY_SOURCE, "weak", {}, 5.0, tmp_path / "h.ckpt", progress=advance
        )
        assert outcome.status == "failed"
        assert "deadline of 5.0s exceeded" in outcome.error


# ----------------------------------------------------------------------
# the HTTP server, end to end


class ServerThread:
    """Run a JobServer on a private event loop in a daemon thread."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("fsync", False)
        config_kwargs.setdefault("workers", 0)
        self.config = ServiceConfig(**config_kwargs)
        self.server: JobServer | None = None
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self._main())
        self._loop.close()

    async def _main(self):
        self._stop = asyncio.Event()
        self.server = JobServer(self.config)
        await self.server.start()
        self._started.set()
        await self._stop.wait()
        await self.server.stop()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        assert self._started.wait(timeout=10), "server failed to start"
        return self

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"


class TestJobServer:
    def test_submit_poll_complete(self, tmp_path):
        with ServerThread(wal_dir=tmp_path) as fixture:
            client = ServiceClient(fixture.url)
            job = client.submit(SB_SOURCE, model="weak")
            assert job["state"] in ("queued", "running")
            done = client.wait(job["id"], timeout=30)
            assert done["state"] == "completed"
            assert done["result"]["executions"] == 4
            direct = enumerate_behaviors(
                assemble(SB_SOURCE).program, get_model("weak")
            )
            assert json.dumps(done["result"], sort_keys=True) == json.dumps(
                canonical_result(direct), sort_keys=True
            )

    def test_idempotent_resubmission(self, tmp_path):
        with ServerThread(wal_dir=tmp_path) as fixture:
            client = ServiceClient(fixture.url)
            first = client.submit(SB_SOURCE, model="weak")
            client.wait(first["id"], timeout=30)
            again = client.submit("  " + SB_SOURCE, model="weak")
            assert again["id"] == first["id"]
            assert again["state"] == "completed"  # replayed, not re-queued

    def test_bad_requests_are_400(self, tmp_path):
        with ServerThread(wal_dir=tmp_path) as fixture:
            client = ServiceClient(fixture.url)
            with pytest.raises(ServiceError) as info:
                client.submit("not a program", model="weak")
            assert info.value.status == 400
            with pytest.raises(ServiceError) as info:
                client.submit(SB_SOURCE, model="no-such-model")
            assert info.value.status == 400
            with pytest.raises(ServiceError) as info:
                client.submit(SB_SOURCE, model="weak", limits={"bogus": 1})
            assert info.value.status == 400

    def test_unknown_job_is_404(self, tmp_path):
        with ServerThread(wal_dir=tmp_path) as fixture:
            with pytest.raises(ServiceError) as info:
                ServiceClient(fixture.url).status("feedfacedeadbeef")
            assert info.value.status == 404

    def test_rate_limit_is_deterministic_429(self, tmp_path):
        fake = {"now": 0.0}
        with ServerThread(
            wal_dir=tmp_path,
            rate_capacity=2,
            rate_refill=0.5,
            clock=lambda: fake["now"],
        ) as fixture:
            client = ServiceClient(fixture.url)
            client.submit(SB_SOURCE, model="weak", account="alice")
            client.submit(SB_SOURCE, model="tso", account="alice")
            with pytest.raises(ServiceError) as info:
                client.submit(SB_SOURCE, model="pso", account="alice")
            assert info.value.status == 429
            assert info.value.retry_after == 2.0  # ceil((1-0)/0.5)
            # another account is unaffected
            job = client.submit(SB_SOURCE, model="pso", account="bob")
            assert job["state"] in ("queued", "running", "completed")

    def test_full_queue_is_429_with_retry_after(self, tmp_path):
        with ServerThread(
            wal_dir=tmp_path, queue_limit=0, queue_retry_after=3.0
        ) as fixture:
            with pytest.raises(ServiceError) as info:
                ServiceClient(fixture.url).submit(SB_SOURCE, model="weak")
            assert info.value.status == 429
            assert info.value.retry_after == 3.0
            assert "queue is full" in str(info.value)

    def test_cancel_queued_job(self, tmp_path):
        with ServerThread(wal_dir=tmp_path, queue_limit=8) as fixture:
            client = ServiceClient(fixture.url)
            job = client.submit(HEAVY_SOURCE, model="weak")
            cancelled = client.cancel(job["id"])
            assert cancelled["state"] in ("cancelled", "running", "completed")
            final = client.wait(job["id"], timeout=30)
            assert final["state"] in ("cancelled", "completed")

    def test_health_endpoint(self, tmp_path):
        with ServerThread(wal_dir=tmp_path) as fixture:
            client = ServiceClient(fixture.url)
            health = client.health()
            assert health["status"] == "ok"
            assert "jobs" in health and "backlog" in health

    def test_restart_preserves_completed_results(self, tmp_path):
        with ServerThread(wal_dir=tmp_path) as fixture:
            client = ServiceClient(fixture.url)
            job = client.submit(SB_SOURCE, model="weak")
            done = client.wait(job["id"], timeout=30)
        with ServerThread(wal_dir=tmp_path) as fixture:
            after = ServiceClient(fixture.url).status(job["id"])
            assert after["state"] == "completed"
            assert after["result"] == done["result"]

    def test_restart_requeues_and_finishes_interrupted_job(self, tmp_path):
        """Graceful-stop variant of the kill -9 test: stop the server
        mid-job, restart on the same WAL dir, job completes with the
        canonical result."""
        with ServerThread(
            wal_dir=tmp_path, slice_behaviors=20, slice_delay=0.1
        ) as fixture:
            client = ServiceClient(fixture.url)
            job = client.submit(HEAVY_SOURCE, model="weak")
            # leave while the job is still in flight
        with ServerThread(wal_dir=tmp_path, slice_behaviors=1000) as fixture:
            client = ServiceClient(fixture.url)
            done = client.wait(job["id"], timeout=60)
            assert done["state"] == "completed"
            direct = enumerate_behaviors(
                assemble(HEAVY_SOURCE).program, get_model("weak")
            )
            assert json.dumps(done["result"], sort_keys=True) == json.dumps(
                canonical_result(direct), sort_keys=True
            )
