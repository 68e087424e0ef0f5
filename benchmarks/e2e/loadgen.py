"""Client side of the service workload: HTTP client, open-loop generator,
and a handle on a server process.

The generator is an *open* loop: every request is started when it is due,
whether or not earlier ones have finished, so a stalled server receives
the same load as a fast one and its queue can grow.  Latency is timed
from when a request was due, not from when it was sent, so the wait a
stall imposes on later requests is counted; how late the generator itself
started each request is reported separately as *lateness*.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import signal
import subprocess
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple


class HttpClient:
    """HTTP/1.1 over asyncio streams, one connection per request.

    At most *connections* requests are in flight at once; a request that
    finds them all busy waits, and that wait counts in its latency.
    """

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.host = host
        self.port = port
        self._slots = asyncio.Semaphore(connections)

    async def request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        async with self._slots:
            reader, writer = await asyncio.open_connection(self.host, self.port)
            try:
                writer.write(head + body)
                await writer.drain()
                status = int((await reader.readline()).split()[1])
                length = None
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip())
                data = (
                    await reader.readexactly(length)
                    if length is not None
                    else await reader.read()
                )
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        return status, (json.loads(data) if data.strip() else {})


@dataclass
class Outcome:
    """One scheduled request: when it was due, started and answered."""

    item: Any
    due: float
    start: float
    end: float
    result: Any
    error: Optional[str]

    @property
    def latency(self) -> float:
        return self.end - self.due

    @property
    def lateness(self) -> float:
        return self.start - self.due


async def open_loop(
    schedule: Sequence[Tuple[float, Any]],
    send: Callable[[Any], Awaitable[Any]],
    clock: Callable[[], float] = time.perf_counter,
) -> List[Outcome]:
    """Start ``send(item)`` at each ``(offset_seconds, item)`` of
    *schedule* (offsets ascending, relative to now); return every
    outcome in schedule order once all have finished."""
    origin = clock()
    tasks = []
    for offset, item in schedule:
        due = origin + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(_timed(send, item, due, clock)))
    return list(await asyncio.gather(*tasks))


async def _timed(send, item, due: float, clock) -> Outcome:
    start = clock()
    try:
        result, error = await send(item), None
    except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(item, due, start, clock(), result, error)


class ServerProcess:
    """A ``repro serve``-style server in its own process.

    *argv* must make the server print ``listening on http://HOST:PORT``
    on stdout; ``--port 0`` lets the OS pick a free port.
    """

    _LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: str, log_path: str) -> None:
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self.host = "127.0.0.1"
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the server announced its port and answers /stats."""
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while not self.port:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before listening"
                )
            match = self._LISTENING.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
        while True:
            try:
                self.get("/stats")
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def get(self, path: str) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read() or b"{}")
        finally:
            conn.close()

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # fields[11], fields[12] are utime, stime (stat fields 14, 15)
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, timeout: float = 60.0) -> int:
        """Graceful SIGTERM drain; kill if it does not exit in time."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            return self.proc.returncode
        finally:
            self._log.close()
