"""Drive a real ``repro serve`` process over TCP.

:class:`Server` spawns the server, times its start-up to the announce line,
scrapes the ``stats`` op (through the repo's ``ServiceClient``) and the
kernel's ``VmHWM`` and stops it. The
loop :func:`closed_loop` sends the generated request lines over a fixed
number of connections that each wait for their reply, optionally after a
think time. A transport error, a timeout or a non-200 code is a failed
request; a failed request is never resent.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: A request still unanswered after this many seconds has failed.
REQUEST_TIMEOUT = 30.0
#: Responses can carry a model of thousands of literals.
STREAM_LIMIT = 1 << 24


@dataclass
class Record:
    """What happened to one request on the wire."""

    rid: str
    due: float
    sent: float = 0.0
    done: Optional[float] = None
    response: Optional[dict] = None
    error: str = ""


class Server:
    """One ``repro serve --solver cdcl --workers 1`` subprocess on an ephemeral port."""

    def __init__(self, checkout: str, cache_dir: str, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(checkout, "src")
        env["TMPDIR"] = os.path.dirname(cache_dir)
        self._log = open(log_path, "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--solver", "cdcl",
             "--workers", "1", "--port", "0", "--cache-dir", cache_dir],
            cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            self.host, self.port = self._await_announce(deadline=started + 60.0)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_announce(self, deadline: float) -> tuple[str, int]:
        buffer = b""
        fd = self.process.stdout.fileno()
        while b"\n" not in buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(f"server did not announce (output {buffer!r})")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"server exited before announcing ({buffer!r})")
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode()
        if "listening on" not in line:
            raise RuntimeError(f"unexpected announce line {line!r}")
        host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
        return host, int(port)

    def _client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.host, self.port, timeout=REQUEST_TIMEOUT)

    def stats(self) -> dict:
        """The ``service`` counters and ``cache`` state from the ``stats`` op."""
        with self._client() as client:
            return client.stats()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def shutdown(self) -> int:
        """Graceful stop; returns the exit code (0 on a clean shutdown)."""
        from repro.exceptions import ReproError

        try:
            with self._client() as client:
                client.shutdown()
            code = self.process.wait(timeout=60)
        except (OSError, ReproError, subprocess.TimeoutExpired):
            self.kill()
            return -1
        self._close()
        return code

    def kill(self) -> None:
        """SIGKILL and reap (acknowledged verdicts are already in the WAL)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self._close()

    def _close(self) -> None:
        self.process.stdout.close()
        self._log.close()


class _Connection:
    """One client connection and its read side."""

    def __init__(self, address) -> None:
        self.address = address
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            *self.address, limit=STREAM_LIMIT
        )

    async def read(self) -> Optional[dict]:
        """The next response, or ``None`` when the server closed or reset."""
        try:
            line = await self.reader.readline()
        except (ConnectionError, OSError):
            return None
        return json.loads(line) if line else None

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()


def closed_loop(address, requests: list, connections: int,
                think: Optional[Callable[[int], float]] = None,
                ) -> tuple[list[Record], float]:
    """Each connection sends its next request once the previous one finished.

    Connections take the indices of ``requests`` from one shared counter
    until every request has been sent once. With ``think``, a connection
    first waits ``think(i)`` seconds before sending request ``i``, like a
    user who reads each answer before asking again. A request whose
    connection is closed or reset has failed; the connection reconnects and
    goes on with the next index. A record's ``due`` is when its request was
    meant to go, so a late wake-up counts in its latency and in the
    generator lag. Returns the records and the phase duration (until every
    connection has stopped).
    """
    return asyncio.run(_closed_loop(address, requests, connections, think))


async def _closed_loop(address, requests, connections, think):
    counter = itertools.count()
    records: list[Record] = []
    start = time.perf_counter()

    async def worker() -> None:
        conn = _Connection(address)
        await conn.open()
        try:
            while True:
                index = next(counter)
                if index >= len(requests):
                    return
                request = requests[index]
                due = time.perf_counter()
                if think is not None:
                    due += think(index)
                    await asyncio.sleep(max(0.0, due - time.perf_counter()))
                record = Record(request.rid, due, time.perf_counter())
                records.append(record)
                try:
                    conn.writer.write(request.line)
                    await conn.writer.drain()
                    response = await asyncio.wait_for(conn.read(), REQUEST_TIMEOUT)
                except (ConnectionError, OSError):
                    response = None
                except asyncio.TimeoutError:
                    record.error = "timeout"
                    response = None
                if response is None:
                    record.error = record.error or "connection closed"
                    conn.close()
                    await conn.open()
                    continue
                record.done, record.response = time.perf_counter(), response
        finally:
            conn.close()

    await asyncio.gather(*(worker() for _ in range(connections)))
    return records, time.perf_counter() - start
