"""The self-healing client: deadlines, backoff, reconnect, resend.

These tests script misbehaving servers directly (no daemon, no engine):
each scenario is a handler coroutine that reads request lines and
answers — or stalls, resets, sheds, or truncates — exactly as the fault
being tested requires, so every retry path is exercised deterministically
and fast.
"""

import asyncio
import json

import pytest

from repro.serve.errors import (
    DeadlineBudgetExceeded,
    MalformedRequestError,
    OverloadedError,
    ServeTimeoutError,
)
from repro.serve.protocol import canonical
from repro.serve.vsafe_client import RetryPolicy, VsafeClient


def _line(obj) -> bytes:
    return (canonical(obj) + "\n").encode("utf-8")


async def _serve(handler):
    """A scripted server on an ephemeral port; returns (server, port)."""
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _run(coro):
    return asyncio.run(coro)


class TestRetryPolicy:
    def test_seeded_sequences_replay(self):
        first = RetryPolicy(seed=7)
        a = [first.next_delay() for _ in range(5)]
        b = RetryPolicy(seed=7)
        assert [b.next_delay() for _ in range(5)] == a
        c = RetryPolicy(seed=8)
        assert [c.next_delay() for _ in range(5)] != a

    def test_delays_bounded_by_base_and_cap(self):
        policy = RetryPolicy(seed=0, base=0.01, cap=0.08)
        for _ in range(200):
            assert 0.01 <= policy.next_delay() <= 0.08

    def test_reset_restarts_the_ramp(self):
        policy = RetryPolicy(seed=3)
        policy.next_delay()
        for _ in range(10):
            policy.next_delay()
        policy.reset()
        assert policy.next_delay() == RetryPolicy(seed=3).next_delay() \
            or policy._prev <= policy.cap   # ramp restarted from base

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base=0.5, cap=0.1)


class TestSequentialRequests:
    def test_retries_retryable_server_errors(self):
        sheds = 2

        async def handler(reader, writer):
            nonlocal sheds
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                req = json.loads(raw)
                if sheds > 0:
                    sheds -= 1
                    writer.write(_line({"id": req["id"], "ok": False,
                                        "error": "overloaded",
                                        "message": "queue full"}))
                else:
                    writer.write(_line({"id": req["id"], "ok": True,
                                        "op": req["op"], "version": 1}))
                await writer.drain()

        async def scenario():
            server, port = await _serve(handler)
            async with VsafeClient("127.0.0.1", port, seed=1,
                                   backoff_base=0.001,
                                   backoff_cap=0.002) as client:
                body = await client.request({"op": "ping", "id": "p"})
                assert body["ok"] and client.retries == 2
            server.close()
            await server.wait_closed()

        _run(scenario())

    def test_non_retryable_error_raises_typed(self):
        async def handler(reader, writer):
            raw = await reader.readline()
            req = json.loads(raw)
            writer.write(_line({"id": req["id"], "ok": False,
                                "error": "bad-request",
                                "message": "nope"}))
            await writer.drain()

        async def scenario():
            server, port = await _serve(handler)
            async with VsafeClient("127.0.0.1", port) as client:
                with pytest.raises(MalformedRequestError):
                    await client.request({"op": "ping", "id": "p"})
                assert client.retries == 0
            server.close()
            await server.wait_closed()

        _run(scenario())

    def test_retryable_error_raises_when_retries_disabled(self):
        async def handler(reader, writer):
            raw = await reader.readline()
            req = json.loads(raw)
            writer.write(_line({"id": req["id"], "ok": False,
                                "error": "overloaded", "message": "full"}))
            await writer.drain()

        async def scenario():
            server, port = await _serve(handler)
            async with VsafeClient("127.0.0.1", port) as client:
                with pytest.raises(OverloadedError):
                    await client.request({"op": "ping", "id": "p"},
                                         retry_server_errors=False)
            server.close()
            await server.wait_closed()

        _run(scenario())

    def test_reconnects_and_resends_after_reset(self):
        drops = 1

        async def handler(reader, writer):
            nonlocal drops
            raw = await reader.readline()
            if not raw:
                return
            if drops > 0:
                drops -= 1
                writer.transport.abort()     # read it, answer nothing
                return
            req = json.loads(raw)
            writer.write(_line({"id": req["id"], "ok": True,
                                "op": req["op"], "version": 1}))
            await writer.drain()

        async def scenario():
            server, port = await _serve(handler)
            async with VsafeClient("127.0.0.1", port, seed=1,
                                   backoff_base=0.001,
                                   backoff_cap=0.002) as client:
                body = await client.request({"op": "ping", "id": "p"})
                assert body["ok"]
                assert client.reconnects == 2    # initial + one rebuild
                assert client.resends == 1       # ambiguous: resent
            server.close()
            await server.wait_closed()

        _run(scenario())

    def test_truncated_response_is_a_transport_error(self):
        truncate = True

        async def handler(reader, writer):
            nonlocal truncate
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                req = json.loads(raw)
                full = _line({"id": req["id"], "ok": True,
                              "op": req["op"], "version": 1})
                if truncate:
                    truncate = False
                    # A parseable fragment with no newline, then cut:
                    # must be rejected, not trusted.
                    writer.write(full[:-1])
                    await writer.drain()
                    writer.transport.abort()
                    return
                writer.write(full)
                await writer.drain()

        async def scenario():
            server, port = await _serve(handler)
            async with VsafeClient("127.0.0.1", port, seed=1,
                                   backoff_base=0.001,
                                   backoff_cap=0.002) as client:
                body = await client.request({"op": "ping", "id": "p"})
                assert body["ok"] and client.resends == 1
            server.close()
            await server.wait_closed()

        _run(scenario())

    def test_stalled_attempt_times_out_then_budget_exhausts(self):
        async def handler(reader, writer):
            while True:
                raw = await reader.readline()
                if not raw:
                    return                       # stall: never answer

        async def scenario():
            server, port = await _serve(handler)
            client = VsafeClient("127.0.0.1", port, deadline_s=0.5,
                                 attempt_timeout_s=0.1, seed=1,
                                 backoff_base=0.001, backoff_cap=0.002)
            try:
                with pytest.raises(DeadlineBudgetExceeded) as info:
                    await client.request({"op": "ping", "id": "p"})
                assert isinstance(info.value.last_error, ServeTimeoutError)
                assert client.retries >= 2
            finally:
                await client.close()
            server.close()
            await server.wait_closed()

        _run(scenario())

    def test_degraded_responses_are_counted(self):
        async def handler(reader, writer):
            raw = await reader.readline()
            req = json.loads(raw)
            writer.write(_line({"id": req["id"], "ok": True,
                                "op": req["op"], "degraded": True,
                                "entries": 0}))
            await writer.drain()

        async def scenario():
            server, port = await _serve(handler)
            async with VsafeClient("127.0.0.1", port) as client:
                body = await client.request({"op": "flush", "id": "f"})
                assert body["degraded"] and client.degraded_seen == 1
            server.close()
            await server.wait_closed()

        _run(scenario())

    def test_skips_a_line_that_answers_nothing_in_flight(self):
        stale = True

        async def handler(reader, writer):
            nonlocal stale
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                req = json.loads(raw)
                if stale:
                    stale = False
                    writer.write(_line({"id": "stale", "ok": True,
                                        "op": "ping", "version": 1}))
                writer.write(_line({"id": req["id"], "ok": True,
                                    "op": req["op"], "version": 1}))
                await writer.drain()

        async def scenario():
            server, port = await _serve(handler)
            async with VsafeClient("127.0.0.1", port) as client:
                body = await client.request({"op": "ping", "id": "p"})
                assert body["id"] == "p"
                assert (client.reconnects, client.resends,
                        client.retries) == (1, 0, 0)
            server.close()
            await server.wait_closed()

        _run(scenario())

    def test_a_request_without_an_id_gets_its_answer(self):
        async def handler(reader, writer):
            raw = await reader.readline()
            req = json.loads(raw)
            writer.write(_line({"id": req.get("id"), "ok": True,
                                "op": req["op"], "version": 1}))
            await writer.drain()

        async def scenario():
            server, port = await _serve(handler)
            async with VsafeClient("127.0.0.1", port) as client:
                body = await client.request({"op": "ping"})
                assert body == {"id": None, "ok": True, "op": "ping",
                                "version": 1}
            server.close()
            await server.wait_closed()

        _run(scenario())

    def test_resends_count_each_rewrite_of_a_retried_shed(self):
        sheds = 2
        seen = []

        async def handler(reader, writer):
            nonlocal sheds
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                seen.append(raw)
                req = json.loads(raw)
                if sheds > 0:
                    sheds -= 1
                    writer.write(_line({"id": req["id"], "ok": False,
                                        "error": "overloaded",
                                        "message": "queue full"}))
                else:
                    writer.write(_line({"id": req["id"], "ok": True,
                                        "op": req["op"], "version": 1}))
                await writer.drain()

        async def scenario():
            server, port = await _serve(handler)
            async with VsafeClient("127.0.0.1", port, seed=1,
                                   backoff_base=0.001,
                                   backoff_cap=0.002) as client:
                await client.request({"op": "ping", "id": "p"})
                assert client.resends == 2 and client.reconnects == 1
            assert len(seen) == 3 and len(set(seen)) == 1
            server.close()
            await server.wait_closed()

        _run(scenario())


class TestPipelinedRequests:
    def test_request_many_requires_unique_ids(self):
        async def scenario():
            client = VsafeClient("127.0.0.1", 1)
            with pytest.raises(ValueError):
                await client.request_many([{"op": "ping", "id": "a"},
                                           {"op": "ping", "id": "a"}])
            with pytest.raises(ValueError):
                await client.request_many([{"op": "ping"}])
            with pytest.raises(ValueError):
                await client.request_many([{"op": "ping", "id": "a"}],
                                          window=0)

        _run(scenario())

    def test_resends_unanswered_after_mid_stream_reset(self):
        answered = 0

        async def handler(reader, writer):
            nonlocal answered
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                req = json.loads(raw)
                if answered == 3:
                    answered += 1                # reset exactly once
                    writer.transport.abort()
                    return
                answered += 1
                writer.write(_line({"id": req["id"], "ok": True,
                                    "op": req["op"], "version": 1}))
                await writer.drain()

        async def scenario():
            server, port = await _serve(handler)
            reqs = [{"op": "ping", "id": f"p{i}"} for i in range(8)]
            async with VsafeClient("127.0.0.1", port, seed=1,
                                   backoff_base=0.001,
                                   backoff_cap=0.002) as client:
                results = await client.request_many(reqs, window=4)
                assert sorted(results) == sorted(r["id"] for r in reqs)
                for rid, line in results.items():
                    assert json.loads(line)["id"] == rid
                assert client.resends >= 1 and client.reconnects == 2
            server.close()
            await server.wait_closed()

        _run(scenario())

    def test_shed_lines_returned_as_results_by_default(self):
        async def handler(reader, writer):
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                req = json.loads(raw)
                if req["id"].endswith("1"):
                    writer.write(_line({"id": req["id"], "ok": False,
                                        "error": "overloaded",
                                        "message": "full"}))
                else:
                    writer.write(_line({"id": req["id"], "ok": True,
                                        "op": req["op"], "version": 1}))
                await writer.drain()

        async def scenario():
            server, port = await _serve(handler)
            reqs = [{"op": "ping", "id": f"p{i}"} for i in range(4)]
            async with VsafeClient("127.0.0.1", port) as client:
                results = await client.request_many(reqs)
                shed = json.loads(results["p1"])
                assert shed["error"] == "overloaded"
                assert json.loads(results["p0"])["ok"]
            server.close()
            await server.wait_closed()

        _run(scenario())
