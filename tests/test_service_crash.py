"""The acceptance test for crash-safety: SIGKILL the server mid-
enumeration, restart it on the same WAL directory, and require the job
to finish with a behavior set byte-identical to a direct, uninterrupted
:func:`~repro.core.enumerate.enumerate_behaviors` run.

The server runs as a real subprocess through the ``repro serve`` CLI so
the kill is a genuine ``kill -9`` — no Python cleanup, no atexit, no
flushed buffers beyond what the WAL fsynced."""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.enumerate import enumerate_behaviors
from repro.errors import ServiceError
from repro.isa.assembler import assemble
from repro.models.registry import get_model
from repro.service.client import ServiceClient
from repro.service.jobs import canonical_result

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

REPO_ROOT = Path(__file__).resolve().parent.parent


def start_server(wal_dir: Path, *, slice_behaviors: int, slice_delay: float = 0.0):
    """Launch ``repro serve`` on an ephemeral port; return (process, url).

    The server leads its own session, so :func:`stop_server` can kill its
    worker pool too: pool workers outlive a SIGKILLed server."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--wal-dir", str(wal_dir),
            "--workers", "1",
            "--slice", str(slice_behaviors),
            "--slice-delay", str(slice_delay),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
        start_new_session=True,
    )
    line = process.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", line)
    if not match:
        stop_server(process)
        pytest.fail(f"server did not announce its port: {line!r}")
    return process, f"http://127.0.0.1:{match.group(1)}"


def stop_server(process) -> None:
    """SIGKILL the server and every process of its session."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=10)
    process.stdout.close()


@pytest.mark.slow
def test_sigkill_recovery_is_byte_identical(tmp_path):
    wal_dir = tmp_path / "service-data"

    # Phase 1: submit, wait until the enumeration is provably in flight
    # (progress recorded, not yet terminal), then kill -9.
    process, url = start_server(wal_dir, slice_behaviors=40, slice_delay=0.15)
    try:
        client = ServiceClient(url)
        job = client.submit(HEAVY_SOURCE, model="weak")
        job_id = job["id"]

        in_flight = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status = client.status(job_id)
            if status["state"] == "running" and status["explored"] > 0:
                in_flight = status
                break
            assert status["state"] in ("queued", "running"), (
                f"job reached {status['state']!r} before it could be killed; "
                f"slice_delay too small for this machine"
            )
            time.sleep(0.02)
        assert in_flight is not None, "never observed the job mid-enumeration"

        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=10)
    finally:
        stop_server(process)

    # The dead server answers nothing.
    with pytest.raises(ServiceError):
        ServiceClient(url, timeout=1.0).health()

    # Phase 2: restart on the same WAL dir.  Replay must re-queue the
    # accepted job (zero lost jobs) and resume from its checkpoint.
    process, url = start_server(wal_dir, slice_behaviors=1000)
    try:
        client = ServiceClient(url)
        recovered = client.status(job_id)  # known without resubmission
        assert recovered["state"] in ("queued", "running", "completed")
        done = client.wait(job_id, timeout=60)
    finally:
        stop_server(process)

    assert done["state"] == "completed", done.get("error", "")
    # It resumed — it did not start over and it did not lose progress.
    assert done["explored"] >= in_flight["explored"]
    assert done["attempts"] >= 2  # one attempt per server incarnation

    # The acceptance criterion: byte-identical to an uninterrupted run.
    direct = enumerate_behaviors(assemble(HEAVY_SOURCE).program, get_model("weak"))
    assert json.dumps(done["result"], sort_keys=True) == json.dumps(
        canonical_result(direct), sort_keys=True
    )


@pytest.mark.slow
def test_completed_results_survive_sigkill(tmp_path):
    """Results acknowledged before the kill are still served afterwards."""
    wal_dir = tmp_path / "service-data"
    process, url = start_server(wal_dir, slice_behaviors=1000)
    try:
        client = ServiceClient(url)
        job = client.submit(HEAVY_SOURCE, model="weak")
        done = client.wait(job["id"], timeout=60)
        assert done["state"] == "completed"
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=10)
    finally:
        stop_server(process)

    process, url = start_server(wal_dir, slice_behaviors=1000)
    try:
        after = ServiceClient(url).status(job["id"])
    finally:
        stop_server(process)
    assert after["state"] == "completed"
    assert after["result"] == done["result"]
