"""The asyncio daemon: connections in, batches through, bytes out.

Two planes of plain event-loop callbacks, no task per connection. Each
connection is one small :class:`asyncio.Protocol`: ``data_received``
splits complete lines off its buffer, answers the inline ops (``ping``/
``stats``/``flush``/``shutdown``) at once, and appends every other
request to one bounded FIFO; a line longer than ``MAX_LINE_BYTES`` gets
one ``bad-request`` answer and closes its connection. The first enqueue
in a loop turn schedules one ``loop.call_soon`` dispatch: up to
``max_batch`` requests off the FIFO, one ``AdmissionEngine.handle_batch``
call, and one ``transport.write`` per connection for its answers; it
reschedules itself while work remains. Queued requests resolve in
arrival order; answers are matched by ``id`` (an inline answer or a
deadline rejection may overtake earlier ones).

Backpressure is structural, not advisory:

* the FIFO is bounded (``queue_limit``) — a full FIFO **sheds** the
  request immediately with an ``overloaded`` error rather than letting
  latency grow without bound;
* a request whose ``deadline_ms`` (or the server default) expires while
  it sits queued is rejected with a ``deadline`` error *before* the
  kernel runs — no work is spent on an answer nobody is waiting for;
* flow control is per connection: a peer that leaves its answers unread
  fills its own transport buffer, whose ``pause_writing`` pauses reading
  that connection only. The dispatcher never awaits a peer, so no peer
  can stall it, and an answer for a closing connection is dropped.

Both shed paths are visible: ``serve.shed`` / ``serve.deadline_expired``
counters, ``serve.batch_size`` and ``serve.latency_s`` histograms, all
through the one-check-per-batch :func:`repro.obs.current` discipline the
engines use. Shutdown (the ``shutdown`` op, ``stop()``, or SIGTERM /
SIGINT — the daemon installs handlers) is graceful *and bounded*: stop
accepting and reading, answer everything queued, close the connections
once their answers are written, flush the persistent cache, optionally
write a metrics snapshot, and leave no task behind — the CI smoke job
asserts exit code 0 and the e2e test asserts ``asyncio.all_tasks()`` is
empty afterwards. All of it shares one ``drain_timeout`` budget
(``--drain-timeout``): a wedged disk, a stuck queue or a peer that never
reads cannot hang shutdown — the flush runs on a daemon thread and is
abandoned (``serve.drain_timeout`` counter, ``drain_timed_out`` in
stats) when the budget lapses, which is safe because the journal is
append-as-you-go and recovery drops torn tails.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro import obs as _obs
from repro.serve.engine import AdmissionEngine
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    parse_request,
)


@dataclass
class ServeConfig:
    """Everything the daemon's behaviour is parameterized on."""

    host: str = "127.0.0.1"
    port: int = 0                 # 0 = ephemeral; the bound port is printed
    max_batch: int = 64           # largest batch one dispatch may coalesce
    queue_limit: int = 1024       # bounded queue: beyond this, shed
    deadline_ms: float = 0.0      # default queue deadline (0 = none)
    cache_path: Optional[str] = None
    max_sessions: int = 4096
    metrics_out: Optional[str] = None
    drain_timeout: float = 5.0    # shutdown budget: queue drain + flush

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {self.max_sessions}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if not 0.0 <= self.deadline_ms < math.inf:
            raise ValueError(f"deadline_ms must be finite and >= 0, "
                             f"got {self.deadline_ms}")
        if not 0.0 < self.drain_timeout < math.inf:
            raise ValueError(f"drain_timeout must be finite and > 0, "
                             f"got {self.drain_timeout}")


def _encode(response: dict) -> bytes:
    """The wire line; a response with no JSON form (a non-finite float)
    becomes an ``internal`` error line, its id dropped if unencodable."""
    try:
        return encode_line(response)
    except (TypeError, ValueError) as exc:
        message = f"response not encodable: {exc}"
    try:
        return encode_line(error_response(response.get("id"), "internal",
                                          message))
    except (TypeError, ValueError):
        return encode_line(error_response(None, "internal", message))


async def _until(done, deadline: float) -> bool:
    """Poll ``done()`` until it holds or the deadline (>= 50 ms) passes."""
    end = max(deadline, time.perf_counter() + 0.05)
    while not done() and time.perf_counter() < end:
        await asyncio.sleep(0.01)
    return done()


class _Connection(asyncio.Protocol):
    """One client connection: complete lines in, answers out."""

    __slots__ = ("server", "transport", "buffer")

    def __init__(self, server: "VsafeServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = bytearray()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server.connections += 1
        self.server._conns.add(self)

    def connection_lost(self, exc) -> None:
        self.server._conns.discard(self)

    def data_received(self, data: bytes) -> None:
        self.buffer += data             # a bytearray: appends stay linear
        if b"\n" in data:
            lines = self.buffer.split(b"\n")
            self.buffer = lines.pop()
            for line in lines:
                if len(line) > MAX_LINE_BYTES:
                    self._refuse()
                    return
                if self.server._stopping.is_set():
                    return
                if line.strip():
                    self.server._handle_line(self, line)
        if len(self.buffer) > MAX_LINE_BYTES:
            self._refuse()

    def eof_received(self) -> None:
        # A last line without its newline counts; then the transport closes.
        if self.buffer.strip():
            self.data_received(b"\n")

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        if not self.server._stopping.is_set():
            self.transport.resume_reading()

    def write(self, data: bytes) -> None:
        if not self.transport.is_closing():
            self.transport.write(data)

    def _refuse(self) -> None:
        """Answer a line longer than the limit once, then close."""
        self.buffer.clear()
        self.write(_encode(error_response(
            None, "bad-request",
            f"request line longer than {MAX_LINE_BYTES} bytes")))
        self.transport.close()


class VsafeServer:
    """The admission daemon: one listener, one FIFO, one dispatcher."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 engine: Optional[AdmissionEngine] = None) -> None:
        self.config = config or ServeConfig()
        if engine is None:
            from repro.serve.cache import PersistentVsafeCache
            from repro.serve.sessions import SessionStore
            engine = AdmissionEngine(
                cache=PersistentVsafeCache(self.config.cache_path),
                sessions=SessionStore(self.config.max_sessions))
        self.engine = engine
        self.host = self.config.host
        self.port = self.config.port
        self.shed = 0
        self.deadline_expired = 0
        self.batches = 0
        self.connections = 0
        self.drain_timed_out = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Queued requests: (request, connection, enqueued at, deadline s).
        self._fifo: deque = deque()
        self._dispatch_due = False
        self._conns: set = set()
        self._stopping: Optional[asyncio.Event] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind and announce the port."""
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.config.host, self.config.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        # The one line a spawning client parses to find the bound port.
        print(f"serving on {self.host}:{self.port}", flush=True)

    async def serve_until_stopped(self) -> int:
        """Run until a ``shutdown`` request (or :meth:`stop`) arrives,
        then drain and clean up. Returns the process exit code (0)."""
        await self._stopping.wait()
        await self._shutdown()
        return 0

    def stop(self) -> None:
        """Request a graceful stop (signal handlers, tests)."""
        if self._stopping is not None:
            self._stopping.set()

    async def _shutdown(self) -> None:
        deadline = time.perf_counter() + self.config.drain_timeout
        # Stop accepting and reading; answer what is queued, unless the
        # budget lapses first (undelivered answers are the lesser evil).
        self._server.close()
        for conn in self._conns:
            conn.transport.pause_reading()
        if not await _until(lambda: not self._fifo, deadline):
            self._fifo.clear()
            self.drain_timed_out = True
            self._count("serve.drain_timeout")
        # Close once written; cut off a peer still not reading at the end.
        for conn in list(self._conns):
            conn.transport.close()
        await _until(lambda: not self._conns, deadline)
        for conn in list(self._conns):
            conn.transport.abort()
        await self._server.wait_closed()
        await self._flush_bounded(deadline)
        self._write_metrics()

    async def _flush_bounded(self, deadline: float) -> None:
        """Flush the cache tier on a daemon thread, bounded by the drain
        deadline: a wedged disk (a hanging fsync) is *abandoned*, not
        awaited — safe because puts were already appended to the journal
        and recovery drops whatever did not survive."""
        cache = self.engine.cache
        flushed = threading.Event()

        def _flush() -> None:
            try:
                cache.flush()
            finally:
                flushed.set()

        threading.Thread(target=_flush, daemon=True,
                         name="serve-flush").start()
        if not await _until(flushed.is_set, deadline):
            self.drain_timed_out = True
            self._count("serve.drain_timeout")

    def _write_metrics(self) -> None:
        """Persist the obs snapshot (the CI smoke job uploads this)."""
        if self.config.metrics_out is None:
            return
        state = _obs.current()
        payload = {
            "serve": self.stats(),
            "metrics": None if state is None else state.metrics.snapshot(),
        }
        out = Path(self.config.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")

    # -- connection plane ---------------------------------------------------

    def _handle_line(self, conn: _Connection, line: bytes) -> None:
        try:
            req = parse_request(decode_line(line))
        except ProtocolError as exc:
            conn.write(_encode(error_response(None, exc.code, str(exc))))
            return
        op = req["op"]
        req_id = req.get("id")
        if op == "ping":
            response = ok_response(req_id, op, {"version": PROTOCOL_VERSION})
        elif op == "stats":
            response = ok_response(req_id, op, self.stats(deep=True))
        elif op == "flush":
            response = self.engine.flush_response(req_id)
        elif op == "shutdown":
            response = ok_response(req_id, op, {"stopping": True})
            self.stop()
        elif len(self._fifo) >= self.config.queue_limit:
            self.shed += 1
            self._count("serve.shed")
            response = error_response(
                req_id, "overloaded",
                f"queue full ({self.config.queue_limit}); shedding")
        else:
            deadline_ms = req.get("deadline_ms", self.config.deadline_ms)
            self._fifo.append((req, conn, time.perf_counter(),
                               deadline_ms / 1000.0 if deadline_ms else None))
            if not self._dispatch_due:
                self._dispatch_due = True
                self._loop.call_soon(self._dispatch)
            return
        conn.write(_encode(response))

    # -- dispatch plane -----------------------------------------------------

    def _dispatch(self) -> None:
        """Answer one batch off the FIFO; one engine call per batch."""
        fifo = self._fifo
        batch = [fifo.popleft()
                 for _ in range(min(len(fifo), self.config.max_batch))]
        self._dispatch_due = bool(fifo)
        if fifo:
            self._loop.call_soon(self._dispatch)
        now = time.perf_counter()
        answers: dict = {}      # connection -> its answer lines, in order
        live = []
        for item in batch:
            req, conn, enqueued, deadline_s = item
            if deadline_s is not None and now - enqueued > deadline_s:
                self.deadline_expired += 1
                self._count("serve.deadline_expired")
                answers.setdefault(conn, []).append(_encode(error_response(
                    req.get("id"), "deadline",
                    "deadline expired while queued")))
            else:
                live.append(item)
        if live:
            self.batches += 1
            responses = self.engine.handle_batch([item[0] for item in live])
            done = time.perf_counter()
            for item, response in zip(live, responses):
                answers.setdefault(item[1], []).append(_encode(response))
            self._observe_batch(len(live), done - now,
                                [done - item[2] for item in live])
        for conn, lines in answers.items():
            conn.write(b"".join(lines))

    # -- telemetry ----------------------------------------------------------

    @staticmethod
    def _count(name: str) -> None:
        state = _obs.current()
        if state is not None:
            state.metrics.counter(name).inc()

    def _observe_batch(self, size, wall_s, latencies) -> None:
        state = _obs.current()
        if state is None:
            return
        metrics = state.metrics
        metrics.counter("serve.batches").inc()
        metrics.histogram("serve.batch_size",
                          _obs.EVENT_COUNT_BUCKETS).observe(size)
        metrics.histogram("serve.batch_wall_s",
                          _obs.LATENCY_BUCKETS_S).observe(wall_s)
        metrics.histogram("serve.latency_s",
                          _obs.LATENCY_BUCKETS_S).observe_many(latencies)

    def stats(self, deep: bool = False) -> dict:
        stats = {
            "host": self.host,
            "port": self.port,
            "connections": self.connections,
            "batches": self.batches,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "queue": len(self._fifo),
            "queue_limit": self.config.queue_limit,
            "max_batch": self.config.max_batch,
            "drain_timeout": self.config.drain_timeout,
            "drain_timed_out": self.drain_timed_out,
        }
        if deep:
            stats["engine"] = self.engine.stats()
        return stats


async def run_server(config: ServeConfig) -> int:
    """Start a server and run it to completion (the CLI entry point).

    SIGTERM and SIGINT request the same graceful, ``drain_timeout``-
    bounded shutdown the ``shutdown`` op does — an orchestrator's stop
    signal drains in-flight work and flushes the cache tier instead of
    dropping it on the floor.
    """
    server = VsafeServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    installed = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.stop)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):
            break  # platform without loop signal support
    try:
        return await server.serve_until_stopped()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)


__all__ = ["ServeConfig", "VsafeServer", "run_server"]
