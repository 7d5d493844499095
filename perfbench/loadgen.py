"""Load generator for the served workloads: closed and open loops.

One client process drives every connection from a single ``selectors``
loop over non-blocking unix sockets.  Frames are encoded before a phase
starts and responses are only stored during it; parsing and the oracle
check happen after the timed phase, so the client adds as little as
possible to what is measured.

* :func:`closed_loop` keeps ``depth`` requests in flight per connection and
  sends the next request as soon as a response frees a slot (callers that
  wait for replies).  It runs a fixed request count.
* :func:`open_loop` sends request ``i`` at ``start + i / rate`` regardless
  of replies (independent users), alternating connections, and times each
  request from when it was due, so a stall is charged to every request it
  delays.  It also records how late the generator itself sent each one.
  It sleeps until shortly before each send is due and polls from there.

The server answers in order per connection, so responses correlate to
requests first in, first out.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from typing import List, Optional, Sequence

# How long before a send is due the open loop stops sleeping and polls.
SPIN_S = 0.0015
# Pipelining depth and deadline of the untimed :meth:`Client.call_all`.
CALL_DEPTH = 32
CALL_DEADLINE_S = 60.0


class PhaseResult:
    """Raw outcome of one phase: per-request response, due and done times."""

    def __init__(self, count: int) -> None:
        self.responses: List[Optional[bytes]] = [None] * count
        self.due = [0.0] * count
        self.sent = [0.0] * count
        self.done = [0.0] * count
        self.start = 0.0
        self.elapsed = 0.0

    def latencies_ms(self) -> List[float]:
        """Latency of every answered request, in ms, from when it was due
        (in a closed loop, when it was sent)."""
        return [
            (done - due) * 1e3
            for done, due, response in zip(self.done, self.due, self.responses)
            if response is not None
        ]

    def lag_ms(self) -> List[float]:
        """How late the generator sent each request, in ms."""
        return [(s - d) * 1e3 for s, d in zip(self.sent, self.due)]


class _Connection:
    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.fifo: deque = deque()

    def close(self) -> None:
        self.sock.close()


class Client:
    """``connections`` unix-socket connections to one server."""

    def __init__(self, path: str, connections: int) -> None:
        self.path = path
        self._connect(connections)

    def _connect(self, connections: int) -> None:
        self.conns = [_Connection(self.path) for _ in range(connections)]
        self.selector = selectors.DefaultSelector()
        for conn in self.conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)

    def _settle(self, result: PhaseResult) -> PhaseResult:
        """End a phase; after a deadline, drop the connections that still
        owe responses, so late answers cannot land in the next phase."""
        result.elapsed = time.perf_counter() - result.start
        if any(conn.fifo for conn in self.conns):
            self.close()
            self._connect(len(self.conns))
        return result

    def close(self) -> None:
        self.selector.close()
        for conn in self.conns:
            conn.close()

    # ------------------------------------------------------------------
    def _flush(self, conn: _Connection) -> None:
        if conn.out:
            try:
                sent = conn.sock.send(conn.out)
            except BlockingIOError:
                sent = 0
            del conn.out[:sent]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
        self.selector.modify(conn.sock, events, conn)

    def _read(self, conn: _Connection, result: PhaseResult, now: float) -> int:
        """Consume whatever arrived; returns the number of responses."""
        try:
            chunk = conn.sock.recv(1 << 18)
        except BlockingIOError:
            return 0
        if not chunk:
            raise ConnectionError("server closed the connection")
        conn.inbuf += chunk
        answered = 0
        start = 0
        while True:
            end = conn.inbuf.find(b"\n", start)
            if end < 0:
                break
            index = conn.fifo.popleft()
            result.responses[index] = bytes(conn.inbuf[start:end])
            result.done[index] = now
            answered += 1
            start = end + 1
        del conn.inbuf[:start]
        return answered

    def _pump(self, result: PhaseResult, timeout: Optional[float]) -> int:
        answered = 0
        for key, events in self.selector.select(timeout):
            conn = key.data
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
            if events & selectors.EVENT_READ:
                answered += self._read(conn, result, time.perf_counter())
        return answered

    # ------------------------------------------------------------------
    def closed_loop(self, frames: Sequence[bytes], depth: int, deadline_s: float) -> PhaseResult:
        """Run ``frames`` keeping ``depth`` in flight per connection."""
        result = PhaseResult(len(frames))
        start = result.start = time.perf_counter()
        deadline = start + deadline_s
        sent = 0
        answered = 0
        total = len(frames)
        while answered < total:
            for conn in self.conns:
                while len(conn.fifo) < depth and sent < total:
                    now = time.perf_counter()
                    result.due[sent] = result.sent[sent] = now
                    conn.out += frames[sent]
                    conn.fifo.append(sent)
                    sent += 1
                self._flush(conn)
            answered += self._pump(result, 1.0)
            if time.perf_counter() > deadline:
                break
        return self._settle(result)

    def open_loop(self, frames: Sequence[bytes], rate: float, deadline_s: float) -> PhaseResult:
        """Send ``frames`` on a fixed schedule of ``rate`` per second."""
        result = PhaseResult(len(frames))
        total = len(frames)
        start = result.start = time.perf_counter() + 0.005
        for index in range(total):
            result.due[index] = start + index / rate
        deadline = start + deadline_s
        sent = 0
        answered = 0
        conns = self.conns
        while answered < total:
            now = time.perf_counter()
            touched = set()
            while sent < total and result.due[sent] <= now:
                conn = conns[sent % len(conns)]
                conn.out += frames[sent]
                conn.fifo.append(sent)
                result.sent[sent] = now
                touched.add(id(conn))
                sent += 1
            for conn in conns:
                if id(conn) in touched:
                    self._flush(conn)
            # Sleep until SPIN_S before the next send is due, then poll:
            # waking from a sleep on a virtual CPU can take a millisecond,
            # which would be charged to the program as latency, while
            # polling throughout would take CPU from the server whenever the
            # host leaves this machine short of it.
            timeout = 1.0
            if sent < total:
                timeout = max(0.0, result.due[sent] - time.perf_counter() - SPIN_S)
            answered += self._pump(result, timeout)
            if time.perf_counter() > deadline:
                break
        return self._settle(result)

    def call_all(self, frames: Sequence[bytes]) -> List[Optional[bytes]]:
        """Untimed helper: answer every frame (closed loop), return responses."""
        return self.closed_loop(frames, CALL_DEPTH, CALL_DEADLINE_S).responses
