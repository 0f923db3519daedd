"""The ``serve`` CLI as a process: stopping it stops its pool workers."""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service import ServiceClient

SRC = Path(__file__).resolve().parents[2] / "src"
SPEC = {
    "config": {"protocol": "mtmrp", "topology": "grid", "group_size": 10, "mac": "ideal"},
    "replicates": 2,
    "batch_seed": 4242,
}


def _children(pid: int) -> list:
    """Child pids of every thread of ``pid`` (the pool forks from a thread)."""
    out = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            out += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            pass
    return out


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _wait(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


async def _one_request(sock: str) -> dict:
    client = await ServiceClient.connect(unix_path=sock)
    try:
        return await client.run_to_completion(SPEC)
    finally:
        await client.close()


def test_sigterm_stops_the_pool_workers(tmp_path):
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "serve", "--serve-unix", "s.sock",
         "--serve-store", "store", "--workers", "2"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    workers: list = []
    try:
        sock = tmp_path / "s.sock"
        assert _wait(sock.exists, 60), "the server never opened its socket"
        done = asyncio.run(asyncio.wait_for(_one_request(str(sock)), timeout=120))
        assert done["event"] == "done" and done["errors"] == []
        workers = _children(server.pid)
        assert len(workers) == 2
        server.terminate()
        server.wait(timeout=60)
        assert _wait(lambda: not any(_running(p) for p in workers), 30), (
            "pool workers outlived the terminated server"
        )
        assert b"[serve] terminated" in server.stderr.read()
    finally:
        for pid in [server.pid, *workers]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        server.wait()
        server.stderr.close()
