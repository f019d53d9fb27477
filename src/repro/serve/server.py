"""The asyncio daemon: connections in, batches through, bytes out.

Layering (deliberately thin): connection handlers only *move* requests —
decode, validate, answer the inline ops (``ping``/``stats``/
``shutdown``), and enqueue the rest onto one bounded queue. A single
dispatcher task drains the queue in batches of up to ``max_batch`` and
hands each batch to the synchronous
:class:`~repro.serve.engine.AdmissionEngine`; responses are written back
to their connections as they resolve, matched by ``id`` (pipelined
requests may complete out of order across a batch boundary).

Backpressure is structural, not advisory:

* the queue is bounded (``queue_limit``) — a full queue **sheds** the
  request immediately with an ``overloaded`` error rather than letting
  latency grow without bound;
* a request whose ``deadline_ms`` (or the server default) expires while
  it sits queued is rejected with a ``deadline`` error *before* the
  kernel runs — no work is spent on an answer nobody is waiting for.

Both paths are visible: ``serve.shed`` / ``serve.deadline_expired``
counters, ``serve.batch_size`` and ``serve.latency_s`` histograms, all
through the one-check-per-batch :func:`repro.obs.current` discipline the
engines use. Shutdown (the ``shutdown`` op, ``stop()``, or SIGTERM /
SIGINT — the daemon installs handlers) is graceful *and bounded*: stop
accepting, drain the queue through the dispatcher, flush the persistent
cache, optionally write a metrics snapshot, and leave no task behind —
the CI smoke job asserts exit code 0 and the e2e test asserts
``asyncio.all_tasks()`` is empty afterwards. The drain and the flush
share one ``drain_timeout`` budget (``--drain-timeout``): a wedged disk
or a stuck queue cannot hang shutdown forever — the flush runs on a
daemon thread and is abandoned (``serve.drain_timeout`` counter,
``drain_timed_out`` in stats) when the budget lapses, which is safe
because the journal is append-as-you-go and recovery drops torn tails.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
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

#: How long shutdown waits for open connections before cancelling them.
SHUTDOWN_GRACE_S = 5.0


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
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.deadline_ms < 0:
            raise ValueError(
                f"deadline_ms must be >= 0, got {self.deadline_ms}")
        if self.drain_timeout <= 0:
            raise ValueError(
                f"drain_timeout must be > 0, got {self.drain_timeout}")


class _Pending:
    """One queued request: what to answer and where to write it."""

    __slots__ = ("req", "writer", "wlock", "enqueued", "deadline_s")

    def __init__(self, req, writer, wlock, enqueued, deadline_s):
        self.req = req
        self.writer = writer
        self.wlock = wlock
        self.enqueued = enqueued
        self.deadline_s = deadline_s


def _unencodable(response: dict, exc: Exception) -> bytes:
    """The ``internal`` error line that replaces a response with no JSON
    form (a non-finite float): that request fails alone, and the
    dispatcher lives on. An id that cannot be echoed is dropped."""
    message = f"response not encodable: {exc}"
    try:
        return encode_line(error_response(response.get("id"), "internal",
                                          message))
    except (TypeError, ValueError):
        return encode_line(error_response(None, "internal", message))


class VsafeServer:
    """The admission daemon: one listener, one queue, one dispatcher."""

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
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._stopping: Optional[asyncio.Event] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind, start the dispatcher, and announce the port."""
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._dispatcher = asyncio.create_task(self._dispatch_loop(),
                                               name="serve-dispatcher")
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
        # Stop accepting; let open connections finish their current line.
        self._server.close()
        await self._server.wait_closed()
        if self._conn_tasks:
            grace = min(SHUTDOWN_GRACE_S, self.config.drain_timeout)
            done, pending = await asyncio.wait(
                self._conn_tasks, timeout=grace)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        # Everything enqueued before the sentinel is still answered —
        # unless the drain budget lapses first (a wedged engine must not
        # hang shutdown; undelivered answers are the lesser evil).
        await self._queue.put(None)
        try:
            await asyncio.wait_for(
                self._dispatcher,
                timeout=max(0.05, deadline - time.perf_counter()))
        except asyncio.TimeoutError:
            self.drain_timed_out = True
            self._count("serve.drain_timeout")
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

        worker = threading.Thread(target=_flush, daemon=True,
                                  name="serve-flush")
        worker.start()
        end = max(deadline, time.perf_counter() + 0.05)
        while not flushed.is_set() and time.perf_counter() < end:
            await asyncio.sleep(0.01)
        if not flushed.is_set():
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

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.connections += 1
        wlock = asyncio.Lock()
        try:
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ConnectionError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_line(line, writer, wlock)
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _handle_line(self, line, writer, wlock) -> None:
        try:
            req = parse_request(decode_line(line))
        except ProtocolError as exc:
            await self._write(writer, wlock,
                             error_response(None, exc.code, str(exc)))
            return
        op = req["op"]
        req_id = req.get("id")
        if op == "ping":
            await self._write(writer, wlock, ok_response(
                req_id, "ping", {"version": PROTOCOL_VERSION}))
        elif op == "stats":
            await self._write(writer, wlock, ok_response(
                req_id, "stats", self.stats(deep=True)))
        elif op == "flush":
            await self._write(writer, wlock,
                              self.engine.flush_response(req_id))
        elif op == "shutdown":
            await self._write(writer, wlock, ok_response(
                req_id, "shutdown", {"stopping": True}))
            self._stopping.set()
        else:
            deadline_ms = req.get("deadline_ms", self.config.deadline_ms)
            deadline_s = (deadline_ms / 1000.0) if deadline_ms else None
            pending = _Pending(req, writer, wlock, time.perf_counter(),
                               deadline_s)
            try:
                self._queue.put_nowait(pending)
            except asyncio.QueueFull:
                self.shed += 1
                self._count("serve.shed")
                await self._write(writer, wlock, error_response(
                    req_id, "overloaded",
                    f"queue full ({self.config.queue_limit}); shedding"))

    async def _write(self, writer, wlock, response: dict) -> None:
        try:
            data = encode_line(response)
        except (TypeError, ValueError) as exc:
            data = _unencodable(response, exc)
        async with wlock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # peer went away; its answers are undeliverable

    # -- dispatch plane -----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Drain the queue in batches; one engine call per batch."""
        queue = self._queue
        while True:
            item = await queue.get()
            if item is None:
                break
            batch = [item]
            while len(batch) < self.config.max_batch:
                try:
                    nxt = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    await self._run_batch(batch)
                    return
                batch.append(nxt)
            await self._run_batch(batch)

    async def _run_batch(self, batch) -> None:
        now = time.perf_counter()
        live = []
        for pending in batch:
            if (pending.deadline_s is not None
                    and now - pending.enqueued > pending.deadline_s):
                self.deadline_expired += 1
                self._count("serve.deadline_expired")
                await self._write(pending.writer, pending.wlock,
                                  error_response(
                                      pending.req.get("id"), "deadline",
                                      "deadline expired while queued"))
            else:
                live.append(pending)
        if not live:
            return
        self.batches += 1
        responses = self.engine.handle_batch([p.req for p in live])
        done = time.perf_counter()
        for pending, response in zip(live, responses):
            await self._write(pending.writer, pending.wlock, response)
        self._observe_batch(len(live), done - now,
                            [done - p.enqueued for p in live])

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
            "queue": 0 if self._queue is None else self._queue.qsize(),
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


__all__ = ["SHUTDOWN_GRACE_S", "ServeConfig", "VsafeServer", "run_server"]
