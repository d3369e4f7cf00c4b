"""The request line limit: long valid lines are served, overlong ones get 413.

A line longer than :data:`MAX_REQUEST_BYTES` must never reset the
connection: the server discards it through its newline, answers ``413``
and goes on serving the lines after it — over TCP and over stdio alike.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import socket
import subprocess
import sys
import threading

import pytest

from repro.runtime.shards import ShardedResultCache
from repro.service import (
    MAX_REQUEST_BYTES,
    TOO_LARGE,
    ServiceClient,
    ServiceConfig,
    SolveService,
)
from repro.service import server as server_module
from repro.service.protocol import OK, ProtocolError

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
)

PING = '{"op":"ping","id":"after"}\n'


def _chain_line(request_id: str, min_bytes: int) -> str:
    """A satisfiable implication chain ``x1, x1 -> x2 -> ...`` of at least ``min_bytes``."""
    n = min_bytes // 14 + 1
    clauses = [[1]] + [[-i, i + 1] for i in range(1, n)]
    line = json.dumps(
        {"op": "solve", "id": request_id, "clauses": clauses}, separators=(",", ":")
    )
    assert len(line) >= min_bytes
    return line + "\n"


def _oversize_line(request_id: str, id_last: bool = False) -> str:
    """A well-formed solve request that its label makes longer than the limit."""
    label = "x" * (MAX_REQUEST_BYTES + 1)
    fields = {"op": "solve", "dimacs": "p cnf 1 1\n1 0\n", "label": label}
    payload = dict(fields, id=request_id) if id_last else dict(id=request_id, **fields)
    return json.dumps(payload, separators=(",", ":")) + "\n"


@pytest.fixture
def tcp_port():
    service = SolveService(
        ServiceConfig(solver="cdcl"),
        cache=ShardedResultCache(directory=None, shards=2),
    )
    ready = threading.Event()
    address = {}

    def on_ready(host, port):
        address["port"] = port
        ready.set()

    thread = threading.Thread(
        target=lambda: service.run_tcp(port=0, ready=on_ready), daemon=True
    )
    thread.start()
    assert ready.wait(timeout=10)
    yield address["port"]
    with ServiceClient("127.0.0.1", address["port"]) as client:
        client.shutdown()
    thread.join(timeout=30)


def _exchange(port: int, payload: str, responses: int) -> list:
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(payload.encode("utf-8"))
        reader = sock.makefile("rb")
        return [json.loads(reader.readline()) for _ in range(responses)]


class TestTcp:
    def test_one_megabyte_line_is_served(self, tcp_port):
        [response] = _exchange(tcp_port, _chain_line("big", 1_000_000), 1)
        assert response["id"] == "big"
        assert response["code"] == OK
        assert response["status"] == "SAT"

    def test_overlong_line_gets_413_and_connection_stays_open(self, tcp_port):
        first, second = _exchange(tcp_port, _oversize_line("huge") + PING, 2)
        assert first["code"] == TOO_LARGE
        assert first["id"] == "huge"
        assert second == {"id": "after", "code": OK, "op": "ping", "ok": True}

    def test_client_sees_413_for_id_at_line_end(self, tcp_port):
        with ServiceClient("127.0.0.1", tcp_port, timeout=60) as client:
            request_id = client.send(json.loads(_oversize_line("tail", id_last=True)))
            response = client.wait(request_id)
            assert response["code"] == TOO_LARGE
            assert response["id"] == "tail"
            assert client.ping()
            with pytest.raises(ProtocolError) as raised:
                client.solve(dimacs="p cnf 1 1\n1 0\n", label="y" * MAX_REQUEST_BYTES)
            assert raised.value.code == TOO_LARGE
            service_stats = client.stats()["service"]
            assert service_stats["responses"]["413"] == 2
            assert service_stats["bad_requests"] == 2


def _stdio(payload: str, responses: int) -> list:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--stdio", "--solver", "cdcl"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    try:
        stdout, stderr = proc.communicate(payload.encode("utf-8"), timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 0, stderr.decode()
    lines = stdout.decode().splitlines()
    assert len(lines) == responses, lines
    return [json.loads(line) for line in lines]


class TestStdio:
    def test_one_megabyte_line_is_served(self):
        [response] = _stdio(_chain_line("big", 1_000_000), 1)
        assert response["code"] == OK
        assert response["status"] == "SAT"

    def test_overlong_line_gets_413_then_next_line_is_served(self):
        first, second = _stdio(_oversize_line("huge") + PING, 2)
        assert first["code"] == TOO_LARGE
        assert first["id"] == "huge"
        assert second["id"] == "after" and second["code"] == OK


class TestReaders:
    """Both line readers at a small limit: same lines, same discards."""

    LIMIT = 32
    STREAM = (
        b'{"id":"a"}\n'
        + b'{"id":"long",' + b"y" * 100 + b"}\n"
        + b'{"id":"b"}\n'
        + b"z" * 80 + b',"id":"end"}\n'
        + b"w" * 33 + b"\n"
        + b"v" * 32 + b"\n"
        + b"tail-without-newline"
    )

    @staticmethod
    def _shape(items) -> list:
        return [
            ("overrun", item.request_id)
            if isinstance(item, server_module._Overrun)
            else item
            for item in items
        ]

    def _expected(self) -> list:
        return [
            b'{"id":"a"}\n',
            ("overrun", "long"),
            b'{"id":"b"}\n',
            ("overrun", "end"),
            ("overrun", None),
            b"v" * 32 + b"\n",
            b"tail-without-newline",
            b"",
        ]

    @pytest.mark.parametrize("trickle", [False, True], ids=["buffered", "trickled"])
    def test_stream_reader(self, monkeypatch, trickle):
        """Whole stream buffered up front, or arriving 7 bytes per loop turn."""
        monkeypatch.setattr(server_module, "MAX_REQUEST_BYTES", self.LIMIT)

        async def feed(reader) -> None:
            for start in range(0, len(self.STREAM), 7):
                reader.feed_data(self.STREAM[start:start + 7])
                if trickle:
                    await asyncio.sleep(0)
            reader.feed_eof()

        async def read_all() -> list:
            reader = asyncio.StreamReader(limit=self.LIMIT)
            feeder = asyncio.ensure_future(feed(reader))
            items = [await server_module._read_line(reader) for _ in range(8)]
            await feeder
            return items

        assert self._shape(asyncio.run(read_all())) == self._expected()

    def test_blocking_reader(self, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_REQUEST_BYTES", self.LIMIT)
        stream = io.BytesIO(self.STREAM)
        items = [server_module._read_line_blocking(stream) for _ in range(8)]
        assert self._shape(items) == self._expected()
