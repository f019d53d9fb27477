"""The asyncio daemon end to end: bytes, backpressure, clean exits.

In-process servers (fast, deterministic — the dispatcher can be held
to force queue states) plus real-subprocess runs of
:mod:`repro.serve.check` in each mode the CI ``serve-smoke`` and
``serve-chaos-smoke`` jobs and the nightly flood run.
"""

import asyncio
import json
import logging
import os
import time

import pytest

from repro import obs
from repro.serve.check import main as check_main, make_smoke_workload
from repro.serve.client import ExpectedAnswers, ServerProcess
from repro.serve.errors import DegradedOperationError
from repro.serve.faultfs import FaultyDiskOps
from repro.serve.protocol import MAX_LINE_BYTES, encode_line
from repro.serve.server import ServeConfig, VsafeServer
from repro.serve.vsafe_client import VsafeClient

ADMIT = {"op": "admit", "id": "a0", "v_bank": 2.1,
         "app": "sense-store", "task": "sample"}


def _run(coro):
    return asyncio.run(coro)


async def _with_server(config, body):
    """Start a server, run ``body(server, client)``, stop, clean up."""
    server = VsafeServer(config)
    await server.start()
    runner = asyncio.ensure_future(server.serve_until_stopped())
    client = VsafeClient(server.host, server.port)
    try:
        result = await body(server, client)
    finally:
        await client.close()
        server.stop()
        await runner
    return result


async def _raw(server):
    """A bare stream, for bytes the client would never send and for
    reads that must wait while the dispatcher is held."""
    return await asyncio.open_connection(server.host, server.port)


def _hold_dispatch(server):
    """Hold the dispatcher: the batch scheduled by the next enqueue does
    nothing, so the queue can only fill. Returns the resume call, which
    runs the held batch (and reschedules while work remains)."""
    server._dispatch = lambda: None

    def resume():
        del server._dispatch
        server._dispatch()
    return resume


class TestEndToEnd:
    def test_served_bytes_match_the_oracle(self):
        async def body(server, client):
            oracle = ExpectedAnswers()
            for req in (
                {"op": "ping", "id": "p"},
                dict(ADMIT),
                {"op": "simulate", "id": "s", "v_start": 2.2,
                 "trace": [[0.01, 0.2]]},
                {"op": "report", "id": "r", "device": "d",
                 "outcome": "brownout"},
            ):
                assert await client.request_line(req) == \
                    oracle.expect_line(req)

        _run(_with_server(ServeConfig(), body))

    def test_malformed_lines_answer_inline_errors(self):
        async def body(server, client):
            reader, writer = await _raw(server)
            writer.write(b"{not json}\n")
            bad = json.loads(await reader.readline())
            assert bad["ok"] is False and bad["error"] == "bad-request"
            # The connection survives a bad line.
            writer.write(encode_line({"op": "ping", "id": "p"}))
            assert json.loads(await reader.readline())["ok"]
            # A structurally invalid (but decodable) request too.
            writer.write(encode_line({"op": "admit", "id": "x"}))
            missing = json.loads(await reader.readline())
            assert missing["error"] == "bad-request"
            writer.close()

        _run(_with_server(ServeConfig(), body))

    def test_blank_lines_are_ignored(self):
        async def body(server, client):
            reader, writer = await _raw(server)
            writer.write(b"\n\n" + encode_line({"op": "ping", "id": "p"}))
            assert json.loads(await reader.readline())["ok"]
            writer.close()

        _run(_with_server(ServeConfig(), body))

    def test_an_over_long_line_is_refused_and_closes_its_connection(
            self, caplog):
        """A line past ``MAX_LINE_BYTES`` gets one ``bad-request`` answer
        naming the limit; then its connection closes, the others serve
        on, and nothing is logged."""
        async def body(server, client):
            reader, writer = await _raw(server)
            line = encode_line({"op": "ping", "id": "x" * MAX_LINE_BYTES})
            writer.write(line[:MAX_LINE_BYTES])
            await asyncio.sleep(0.1)        # all read, none over the limit
            writer.write(line[MAX_LINE_BYTES:])
            refused = json.loads(await reader.readline())
            assert (refused["id"], refused["error"]) == (None, "bad-request")
            assert str(MAX_LINE_BYTES) in refused["message"]
            try:
                writer.write(encode_line({"op": "ping", "id": "p"}))
                closed = await reader.readline()
            except ConnectionError:
                closed = b""
            assert closed == b""
            writer.close()
            assert (await client.request({"op": "ping", "id": "q"}))["ok"]

        with caplog.at_level(logging.WARNING):
            _run(_with_server(ServeConfig(), body))
        assert caplog.records == []

    def test_stats_are_deep_and_live(self):
        async def body(server, client):
            await client.request_line(dict(ADMIT))
            stats = json.loads(await client.request_line(
                {"op": "stats", "id": "st"}))
            assert stats["ok"]
            assert stats["batches"] == 1
            assert stats["engine"]["cache"]["entries"] >= 1
            assert stats["queue_limit"] == server.config.queue_limit

        _run(_with_server(ServeConfig(), body))


class TestBackpressure:
    def test_full_queue_sheds_with_overloaded(self):
        async def body(server, client):
            # Hold dispatch so the queue can only fill.
            resume = _hold_dispatch(server)
            reader, writer = await _raw(server)
            writer.write(encode_line(ADMIT))   # occupies the single slot
            await asyncio.sleep(0.05)          # let the handler enqueue it
            writer.write(encode_line({**ADMIT, "id": "a1"}))
            rejected = json.loads(await reader.readline())
            assert rejected["id"] == "a1"
            assert rejected["error"] == "overloaded"
            assert server.shed == 1
            # Resume dispatch: the queued request must still be answered
            # and drain cleanly through shutdown.
            resume()
            answered = json.loads(await reader.readline())
            assert answered["id"] == "a0" and answered["ok"]
            writer.close()

        config = ServeConfig(queue_limit=1)
        _run(_with_server(config, body))

    def test_expired_deadline_rejects_before_the_kernel(self):
        async def body(server, client):
            resume = _hold_dispatch(server)
            reader, writer = await _raw(server)
            writer.write(encode_line({**ADMIT, "deadline_ms": 1.0}))
            await asyncio.sleep(0.05)      # queued past its deadline
            resume()
            rejected = json.loads(await reader.readline())
            writer.close()
            assert rejected["error"] == "deadline"
            assert server.deadline_expired == 1
            assert server.engine.kernel_calls == 0
            assert server.engine.cache.stats()["misses"] == 0

        _run(_with_server(ServeConfig(deadline_ms=1.0), body))

    def test_a_connection_that_never_reads_stalls_no_one(self):
        """Connection A pipelines admits whose answers (16 KiB ids)
        overflow every socket buffer, and never reads one. Only A stops
        being read: B is answered at once, A's reset logs nothing, and
        the daemon exits 0."""
        async def run(host, port):
            _a_reader, a_writer = await asyncio.open_connection(host, port)
            pad = "x" * 16384
            a_writer.write(b"".join(
                encode_line({**ADMIT, "id": f"{pad}{n}"})
                for n in range(1024)))
            await asyncio.sleep(0.5)       # A's answers fill its buffers
            b_reader, b_writer = await asyncio.open_connection(host, port)

            async def ask(req):
                b_writer.write(encode_line(req))
                answer = json.loads(
                    await asyncio.wait_for(b_reader.readline(), 2.0))
                assert answer["ok"] and answer["id"] == req["id"]

            await ask(ADMIT)
            a_writer.transport.abort()     # A resets, its answers unread
            await ask({"op": "stats", "id": "st"})
            await ask({"op": "shutdown", "id": "bye"})
            b_writer.close()

        with ServerProcess("--queue-limit", "100000") as server:
            asyncio.run(run(server.host, server.port))
            assert server.wait() == 0
            assert server.output() == ""


class TestLifecycle:
    def test_shutdown_op_acks_drains_and_leaves_no_tasks(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"

        async def run():
            obs.enable()
            try:
                server = VsafeServer(ServeConfig(
                    metrics_out=str(metrics_path)))
                await server.start()
                runner = asyncio.ensure_future(
                    server.serve_until_stopped())
                client = VsafeClient(server.host, server.port)
                await client.request(ADMIT)
                ack = await client.request({"op": "shutdown", "id": "bye"})
                assert ack["stopping"] is True
                await client.close()
                assert await runner == 0
                # Nothing left behind but this coroutine.
                leftovers = [t for t in asyncio.all_tasks()
                             if t is not asyncio.current_task()]
                assert leftovers == []
            finally:
                obs.disable()

        _run(run())
        payload = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert payload["serve"]["batches"] >= 1
        counters = payload["metrics"]["counters"]
        assert counters["serve.requests"] >= 1
        assert "serve.batch_size" in payload["metrics"]["histograms"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServeConfig(queue_limit=0)
        with pytest.raises(ValueError):
            ServeConfig(deadline_ms=-1.0)
        with pytest.raises(ValueError):
            ServeConfig(drain_timeout=0.0)

    def test_wedged_flush_cannot_hang_shutdown(self, tmp_path):
        """The satellite contract: SIGTERM/stop() drains within
        ``drain_timeout`` even when the cache flush never returns."""
        async def run():
            config = ServeConfig(cache_path=str(tmp_path / "cache"),
                                 drain_timeout=0.5)
            server = VsafeServer(config)
            await server.start()
            runner = asyncio.ensure_future(server.serve_until_stopped())
            client = VsafeClient(server.host, server.port)
            await client.request(ADMIT)
            await client.close()

            def wedged_flush():
                time.sleep(60.0)       # a disk that never answers

            server.engine.cache.flush = wedged_flush
            started = time.perf_counter()
            server.stop()
            assert await runner == 0
            elapsed = time.perf_counter() - started
            assert elapsed < 10.0      # bounded, not the 60s wedge
            assert server.drain_timed_out

        _run(run())


class TestCrashSafety:
    def test_flush_op_reports_durable_entries(self, tmp_path):
        async def body(server, client):
            await client.request(ADMIT)
            flushed = await client.request({"op": "flush", "id": "f"})
            assert flushed["ok"] and flushed["entries"] >= 1
            assert "degraded" not in flushed

        _run(_with_server(
            ServeConfig(cache_path=str(tmp_path / "cache")), body))

    def test_degraded_tier_flags_responses_and_fails_flush(self, tmp_path):
        async def run():
            config = ServeConfig(cache_path=str(tmp_path / "cache"))
            server = VsafeServer(config)
            # Fail the first fsync: the tier degrades on the first flush.
            server.engine.cache._writer.disk = FaultyDiskOps(
                fsync_fail_after=0)
            await server.start()
            runner = asyncio.ensure_future(server.serve_until_stopped())
            client = VsafeClient(server.host, server.port)
            try:
                with pytest.raises(DegradedOperationError) as raised:
                    await client.request({"op": "flush", "id": "f"})
                assert raised.value.response["ok"] is False
                assert raised.value.response["error"] == "degraded"
                # Queries still answer — with the degraded marker.
                answer = await client.request(ADMIT)
                assert answer["ok"] and answer["degraded"] is True
                stats = await client.request({"op": "stats", "id": "st"})
                assert stats["engine"]["cache"]["degraded"] is True
            finally:
                await client.close()
                server.stop()
                await runner

        _run(run())

    def test_byte_identical_reports_are_deduplicated(self):
        async def body(server, client):
            report = {"op": "report", "id": "r", "device": "d",
                      "outcome": "brownout"}
            first = await client.request_line(report)
            # A byte-identical resend replays the recorded response
            # instead of double-counting the brownout.
            second = await client.request_line(report)
            assert second == first
            assert json.loads(first)["brownouts"] == 1
            assert server.engine.replayed_reports == 1
            # A *different* report still applies.
            third = json.loads(await client.request_line(
                {**report, "id": "r2"}))
            assert third["brownouts"] == 2

        _run(_with_server(ServeConfig(), body))

    def test_warm_restart_survives_sigkill(self, tmp_path):
        """The daemon is SIGKILLed; a successor on the same journal
        serves the same bytes for the same queries."""
        async def ask(host, port, reqs):
            async with VsafeClient(host, port) as client:
                return [await client.request_line(r) for r in reqs]

        reqs = [dict(ADMIT), {"op": "admit", "id": "a1", "v_bank": 1.9,
                              "app": "sense-tx", "task": "radio"}]
        cache = str(tmp_path / "cache")
        with ServerProcess("--cache", cache) as first:
            before = asyncio.run(ask(first.host, first.port, reqs))
            flushed = asyncio.run(ask(first.host, first.port,
                                      [{"op": "flush", "id": "f"}]))
            assert json.loads(flushed[0])["ok"]
            port = first.port
            first.kill()
        with ServerProcess("--cache", cache, port=port) as second:
            after = asyncio.run(ask(second.host, second.port, reqs))
            stats = asyncio.run(ask(second.host, second.port,
                                    [{"op": "stats", "id": "st"}]))
            assert asyncio.run(ask(
                second.host, second.port,
                [{"op": "shutdown", "id": "bye"}]))
            assert second.wait() == 0
        assert after == before
        loaded = json.loads(stats[0])["engine"]["cache"]
        assert loaded["load_status"] in ("loaded", "recovered")
        assert loaded["loaded_entries"] >= 1

    def test_sigterm_drains_to_exit_zero(self):
        with ServerProcess() as server:
            async def ping():
                async with VsafeClient(server.host, server.port) as client:
                    return await client.request({"op": "ping", "id": "p"})

            assert asyncio.run(ping())["ok"]
            server.terminate()             # SIGTERM, not the shutdown op
            assert server.wait(timeout=30) == 0


class TestNonFiniteInput:
    def test_unanswerable_requests_fail_alone(self, tmp_path):
        """A finite but extreme load overflows the simulation, and an id
        too large for a float has no JSON form: each request gets an
        error line of its own, nothing unencodable reaches the journal,
        and the dispatcher keeps serving — an admit on another
        connection is still answered."""
        async def exchange(host, port, line):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(line)
                await writer.drain()
                return json.loads(
                    await asyncio.wait_for(reader.readline(), 30.0))
            finally:
                writer.close()
                await writer.wait_closed()

        with ServerProcess("--cache", str(tmp_path / "cache")) as server:
            def ask(line):
                return asyncio.run(exchange(server.host, server.port, line))

            overflow = ask(b'{"op":"simulate","id":"s","v_start":2.2,'
                           b'"trace":[[1e308,0.2]]}\n')
            assert overflow["ok"] is False
            assert (overflow["error"], overflow["id"]) == ("internal", "s")
            huge_id = ask(b'{"op":"report","id":1e400,"device":"d",'
                          b'"outcome":"success"}\n')
            assert (huge_id["error"], huge_id["id"]) == ("internal", None)
            nan = ask(b'{"op":"simulate","id":"n","v_start":NaN,'
                      b'"trace":[[0.01,0.2]]}\n')
            assert nan["error"] == "bad-request"
            assert ask(encode_line(ADMIT))["ok"] is True
            assert ask(encode_line({"op": "shutdown", "id": "bye"}))["ok"]
            assert server.wait() == 0


class TestSubprocessSmoke:
    def test_differential_check_entry_point(self, tmp_path):
        # The CI serve-smoke job, miniaturized: a real `python -m repro
        # serve` subprocess, a seeded mixed workload, every response
        # byte-compared against the library oracle, rc 0, metrics file.
        metrics = tmp_path / "serve-metrics.json"
        rc = check_main(["--queries", "40", "--devices", "4",
                         "--connections", "3", "--seed", "1",
                         "--metrics-out", str(metrics)])
        assert rc == 0
        payload = json.loads(metrics.read_text(encoding="utf-8"))
        assert payload["serve"]["shed"] == 0

    def test_sustained_flood_sheds_and_checks_every_answer(self):
        # The nightly serve-sustained job, miniaturized: pipelined floods
        # against the small default queue must trip load shedding, and
        # every answer that is not shed must still match the library.
        assert check_main(["--sustained", "--queries", "300",
                           "--connections", "4", "--seed", "1"]) == 0

    def test_chaos_smoke_heals_every_fault(self):
        # The serve-chaos-smoke differential leg, miniaturized: chaos
        # proxies on every lane and a disk-fault plan on the daemon, and
        # still every answered byte matches modulo the degraded flag.
        assert check_main(["--chaos", "--queries", "40", "--devices", "4",
                           "--connections", "3", "--seed", "1"]) == 0

    def test_a_daemon_that_logs_fails_the_check(self, tmp_path, monkeypatch,
                                                capsys):
        """A healthy daemon prints nothing after its ``serving on`` line,
        so a plain check fails on anything written there (here a
        traceback header at exit), even when every answer matched."""
        (tmp_path / "sitecustomize.py").write_text(
            "import atexit, sys\n"
            "atexit.register(print, 'Traceback (most recent call last):',"
            " file=sys.stderr)\n", encoding="utf-8")
        path = os.environ.get("PYTHONPATH")
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            [str(tmp_path)] + ([path] if path else [])))
        assert check_main(["--queries", "12", "--devices", "2",
                           "--connections", "2", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "wrote after its 'serving on' line" in err
        assert "Traceback" in err

    def test_workload_generator_is_seeded_and_partitioned(self):
        lanes = make_smoke_workload(seed=3, queries=60, devices=5,
                                    connections=4)
        again = make_smoke_workload(seed=3, queries=60, devices=5,
                                    connections=4)
        assert lanes == again
        assert sum(len(lane) for lane in lanes) == 60
        # Device affinity: every device's requests live on one lane.
        home = {}
        for lane_no, lane in enumerate(lanes):
            for req in lane:
                device = req.get("device")
                if device is not None:
                    assert home.setdefault(device, lane_no) == lane_no
