#!/usr/bin/env python
"""CI smoke test for the analysis service's crash-recovery guarantee.

Starts ``repro serve`` as a real subprocess, submits an enumeration,
``kill -9``s the server mid-flight, restarts it on the same WAL
directory, and requires the recovered job to finish with a behavior set
byte-identical to a direct, uninterrupted ``enumerate_behaviors`` run.

Exits 0 and prints PASS on success; any broken guarantee exits 1.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.enumerate import enumerate_behaviors  # noqa: E402
from repro.errors import ServiceError  # noqa: E402
from repro.isa.assembler import assemble  # noqa: E402
from repro.models.registry import get_model  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.jobs import canonical_result  # noqa: E402

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


def start_server(wal_dir, slice_behaviors, slice_delay=0.0):
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
        start_new_session=True,  # so stop() can kill the worker pool too
    )
    line = process.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", line)
    if not match:
        stop(process)
        raise SystemExit(f"FAIL: server did not announce its port: {line!r}")
    return process, f"http://127.0.0.1:{match.group(1)}"


def stop(process):
    """SIGKILL the server and its session: pool workers outlive a
    SIGKILLed server."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=10)
    process.stdout.close()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="service-smoke-") as tmp:
        wal_dir = Path(tmp) / "service-data"

        # Phase 1: submit, observe the enumeration in flight, kill -9.
        process, url = start_server(wal_dir, slice_behaviors=40, slice_delay=0.15)
        try:
            client = ServiceClient(url)
            job = client.submit(HEAVY_SOURCE, model="weak")
            job_id = job["id"]
            print(f"submitted job {job_id}")

            in_flight = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status = client.status(job_id)
                if status["state"] == "running" and status["explored"] > 0:
                    in_flight = status
                    break
                if status["state"] not in ("queued", "running"):
                    print(f"FAIL: job reached {status['state']!r} before the kill")
                    return 1
                time.sleep(0.02)
            if in_flight is None:
                print("FAIL: never observed the job mid-enumeration")
                return 1
            print(f"killing server at explored={in_flight['explored']}")
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=10)
        finally:
            stop(process)

        try:
            ServiceClient(url, timeout=1.0).health()
            print("FAIL: dead server answered a request")
            return 1
        except ServiceError:
            pass

        # Phase 2: restart on the same WAL dir; the job must recover.
        process, url = start_server(wal_dir, slice_behaviors=1000)
        try:
            client = ServiceClient(url)
            done = client.wait(job_id, timeout=60)
        finally:
            stop(process)

        if done["state"] != "completed":
            print(f"FAIL: recovered job ended {done['state']!r}: "
                  f"{done.get('error', '')}")
            return 1
        if done["explored"] < in_flight["explored"]:
            print(f"FAIL: lost progress ({in_flight['explored']} -> "
                  f"{done['explored']})")
            return 1

        direct = enumerate_behaviors(
            assemble(HEAVY_SOURCE).program, get_model("weak")
        )
        served = json.dumps(done["result"], sort_keys=True)
        expected = json.dumps(canonical_result(direct), sort_keys=True)
        if served != expected:
            print(f"FAIL: results differ\n  served:   {served}\n"
                  f"  expected: {expected}")
            return 1

        print(f"recovered and completed: explored={done['explored']}, "
              f"{done['result']['executions']} executions, "
              f"{len(done['result']['outcomes'])} outcomes")
        print("PASS: SIGKILL recovery is byte-identical to a direct run")
        return 0


if __name__ == "__main__":
    sys.exit(main())
