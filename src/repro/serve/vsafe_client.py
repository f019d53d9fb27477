"""The self-healing admission client: deadlines, backoff, resend.

:class:`VsafeClient` wraps the NDJSON wire protocol in the retry
discipline a device-side caller needs when the network, the daemon, or
the daemon's disk is misbehaving:

* **per-request deadlines** — every call carries an overall budget;
  attempts, backoffs and reconnects all spend from it, and exhaustion
  raises :class:`~repro.serve.errors.DeadlineBudgetExceeded` with the
  last underlying failure attached.
* **capped exponential backoff with seeded decorrelated jitter** — the
  classic ``sleep = min(cap, uniform(base, 3 * previous))`` recipe, fed
  by a seeded :class:`random.Random` so campaigns replay identically
  while a fleet of real clients desynchronizes instead of stampeding.
* **automatic reconnect** — any transport failure (reset, half-open
  stall, refused connect while the daemon restarts) tears the
  connection down and rebuilds it; a stalled attempt is bounded by
  ``attempt_timeout_s`` so a half-open socket cannot eat the budget.
* **safe idempotent resend keyed on canonical request bytes** — after
  an ambiguous failure (the request may or may not have been processed)
  the client resends the *same* encoded line. This is safe for every
  op: admits/simulates are pure, and the engine deduplicates reports by
  the digest of those bytes and replays the recorded response
  (:mod:`repro.serve.protocol`'s idempotency contract — Alpaca's
  crash-equals-retry discipline at the service layer).

Server-side error codes surface as typed exceptions
(:mod:`repro.serve.errors`); only the retryable subset
(``overloaded``, ``deadline``) is retried, and only when
``retry_server_errors`` is on (the default for sequential requests).

The client is asyncio-based and **sequential** per call —
:meth:`request` keeps one request in flight; :meth:`request_many`
pipelines a window and re-matches responses by ``id``, resending every
unanswered request after a transport failure. Both leave the connection
in sync or torn down, never ambiguous.

It is the package's only client: the differential check
(:class:`~repro.serve.client.ByteCheck`) drives it as well, and its
counters let a plain run demand that nothing was healed.
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict, deque
from random import Random
from time import monotonic
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.errors import (
    DeadlineBudgetExceeded,
    ServeConnectionError,
    ServeTimeoutError,
    VsafeServiceError,
    error_for_response,
)
from repro.serve.protocol import MAX_LINE_BYTES, RETRYABLE_ERRORS, \
    encode_line

#: Transport-level exceptions one attempt may die of.
_TRANSPORT_ERRORS = (ConnectionError, OSError, EOFError,
                     asyncio.IncompleteReadError)


class RetryPolicy:
    """Capped, seeded, decorrelated-jitter exponential backoff."""

    def __init__(self, seed: int = 0, base: float = 0.02,
                 cap: float = 0.5) -> None:
        if base <= 0 or cap < base:
            raise ValueError(f"need 0 < base <= cap, got {base}, {cap}")
        self.base = base
        self.cap = cap
        self._rng = Random(seed)
        self._prev = base

    def next_delay(self) -> float:
        """The next sleep: ``min(cap, uniform(base, 3 * previous))``."""
        delay = min(self.cap, self._rng.uniform(self.base, self._prev * 3))
        self._prev = delay
        return delay

    def reset(self) -> None:
        self._prev = self.base


class VsafeClient:
    """A reconnecting, deadline-bounded client for one daemon address.

    All counters (``retries``, ``reconnects``, ``resends``,
    ``degraded_seen``) accumulate over the client's life so harnesses
    can assert that faults were actually masked rather than unexercised,
    or, in a plain run, that nothing needed masking.
    """

    def __init__(self, host: str, port: int, *,
                 deadline_s: float = 10.0,
                 attempt_timeout_s: float = 2.0,
                 seed: int = 0,
                 backoff_base: float = 0.02,
                 backoff_cap: float = 0.5) -> None:
        self.host = host
        self.port = port
        self.deadline_s = deadline_s
        self.attempt_timeout_s = attempt_timeout_s
        self.policy = RetryPolicy(seed, base=backoff_base, cap=backoff_cap)
        self.retries = 0
        self.reconnects = 0
        self.resends = 0
        self.degraded_seen = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    # -- connection management ----------------------------------------------

    async def _ensure_connected(self, budget: float) -> None:
        if self._writer is not None:
            return
        timeout = min(self.attempt_timeout_s, max(0.05, budget))
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port,
                                    limit=MAX_LINE_BYTES),
            timeout=timeout)
        self.reconnects += 1

    async def _teardown(self) -> None:
        """Kill the connection so request/response matching resyncs."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is None:
            return
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass

    async def close(self) -> None:
        await self._teardown()

    async def __aenter__(self) -> "VsafeClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def _backoff(self, deadline: float) -> None:
        delay = min(self.policy.next_delay(),
                    max(0.0, deadline - monotonic()))
        if delay > 0:
            await asyncio.sleep(delay)

    # -- sequential requests ------------------------------------------------

    async def request(self, req: dict, *,
                      retry_server_errors: bool = True,
                      deadline_s: Optional[float] = None) -> dict:
        """One request to completion: the decoded OK response.

        Raises a typed :class:`VsafeServiceError` for a non-retryable
        server error, :class:`DeadlineBudgetExceeded` when the budget
        runs out across attempts.
        """
        body, _line = await self._request(req, retry_server_errors,
                                          deadline_s)
        return body

    async def request_line(self, req: dict, *,
                           retry_server_errors: bool = True,
                           deadline_s: Optional[float] = None) -> bytes:
        """Like :meth:`request` but returns the raw response line — the
        unit the differential byte check compares."""
        _body, line = await self._request(req, retry_server_errors,
                                          deadline_s)
        return line

    async def _request(self, req: dict, retry_server_errors: bool,
                       deadline_s: Optional[float]) \
            -> Tuple[dict, bytes]:
        line = encode_line(req)     # the canonical bytes every resend sends
        want_id = req.get("id")
        deadline = monotonic() + (self.deadline_s if deadline_s is None
                                  else deadline_s)
        self.policy.reset()
        last_error: Optional[VsafeServiceError] = None
        first_attempt = True
        while True:
            budget = deadline - monotonic()
            if budget <= 0:
                raise DeadlineBudgetExceeded(
                    f"deadline budget exhausted for id={want_id!r} "
                    f"(last: {last_error})", last_error)
            try:
                await self._ensure_connected(budget)
                if not first_attempt:
                    self.resends += 1
                first_attempt = False
                self._writer.write(line)
                await self._writer.drain()
                raw = await asyncio.wait_for(
                    self._reader.readline(),
                    timeout=min(self.attempt_timeout_s,
                                max(0.05, budget)))
                if not raw:
                    raise ConnectionResetError(
                        "server closed the connection")
                body = self._decode(raw)
                if want_id is not None and body.get("id") != want_id:
                    # Desynchronized stream (should be impossible on a
                    # fresh connection): resync by reconnecting.
                    raise ConnectionResetError(
                        f"response id {body.get('id')!r} does not match "
                        f"request id {want_id!r}")
                if body.get("ok"):
                    if body.get("degraded"):
                        self.degraded_seen += 1
                    return body, raw
                error = error_for_response(body)
                if error.retryable and retry_server_errors:
                    last_error = error
                    self.retries += 1
                    await self._backoff(deadline)
                    continue
                raise error
            except asyncio.TimeoutError:
                await self._teardown()
                last_error = ServeTimeoutError(
                    f"attempt stalled past {self.attempt_timeout_s:g}s "
                    f"for id={want_id!r}")
                self.retries += 1
                await self._backoff(deadline)
            except _TRANSPORT_ERRORS as exc:
                await self._teardown()
                last_error = ServeConnectionError(
                    str(exc) or type(exc).__name__)
                self.retries += 1
                await self._backoff(deadline)

    @staticmethod
    def _decode(raw: bytes) -> dict:
        if not raw.endswith(b"\n"):
            # readline returns a partial line at EOF: the peer (or a
            # chaos proxy) cut the stream mid-response. Even if the
            # fragment parses as JSON it must not be trusted.
            raise ConnectionResetError("truncated response line")
        try:
            body = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConnectionResetError(
                f"undecodable response line: {exc}") from exc
        if not isinstance(body, dict):
            raise ConnectionResetError("response line is not an object")
        return body

    # -- pipelined requests -------------------------------------------------

    async def request_many(self, reqs: Sequence[dict], *,
                           window: int = 64,
                           retry_server_errors: bool = False,
                           deadline_s: Optional[float] = None) \
            -> Dict[str, bytes]:
        """Pipeline ``reqs`` (unique ids required); raw line per id.

        Keeps up to ``window`` requests in flight, matching responses by
        ``id``. A transport failure tears the connection down and
        **resends every unanswered request** — safe because resends are
        byte-identical and every op is idempotent under them. Retryable
        server errors are resent only when ``retry_server_errors`` is
        set; otherwise their error lines are returned as results (load
        harnesses count sheds rather than fight them).
        """
        ids = [req.get("id") for req in reqs]
        if len(set(ids)) != len(ids) or None in ids:
            raise ValueError("request_many needs unique, non-null ids")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        deadline = monotonic() + (self.deadline_s if deadline_s is None
                                  else deadline_s)
        self.policy.reset()
        results: Dict[str, bytes] = {}
        remaining: "deque[dict]" = deque(reqs)
        outstanding: "OrderedDict[str, dict]" = OrderedDict()
        last_error: Optional[VsafeServiceError] = None
        while remaining or outstanding:
            budget = deadline - monotonic()
            if budget <= 0:
                raise DeadlineBudgetExceeded(
                    f"deadline budget exhausted with "
                    f"{len(remaining) + len(outstanding)} unanswered "
                    f"(last: {last_error})", last_error)
            try:
                await self._ensure_connected(budget)
                while remaining and len(outstanding) < window:
                    req = remaining.popleft()
                    outstanding[req["id"]] = req
                    self._writer.write(encode_line(req))
                await self._writer.drain()
                raw = await asyncio.wait_for(
                    self._reader.readline(),
                    timeout=min(self.attempt_timeout_s,
                                max(0.05, budget)))
                if not raw:
                    raise ConnectionResetError(
                        "server closed the connection")
                body = self._decode(raw)
                req = outstanding.pop(body.get("id"), None)
                if req is None:
                    continue    # unsolicited line; ignore and resync
                if body.get("ok"):
                    if body.get("degraded"):
                        self.degraded_seen += 1
                    results[req["id"]] = raw
                elif retry_server_errors \
                        and body.get("error") in RETRYABLE_ERRORS:
                    last_error = error_for_response(body)
                    self.retries += 1
                    remaining.append(req)
                else:
                    results[req["id"]] = raw
            except asyncio.TimeoutError:
                await self._teardown()
                last_error = ServeTimeoutError(
                    f"attempt stalled past {self.attempt_timeout_s:g}s")
                self._requeue(remaining, outstanding)
                await self._backoff(deadline)
            except _TRANSPORT_ERRORS as exc:
                await self._teardown()
                last_error = ServeConnectionError(
                    str(exc) or type(exc).__name__)
                self._requeue(remaining, outstanding)
                await self._backoff(deadline)
        return results

    def _requeue(self, remaining: "deque[dict]",
                 outstanding: "OrderedDict[str, dict]") -> None:
        """Every unanswered in-flight request goes back to the front,
        original order preserved (they will be resent byte-identically)."""
        pending: List[dict] = list(outstanding.values())
        outstanding.clear()
        self.resends += len(pending)
        self.retries += 1
        remaining.extendleft(reversed(pending))


__all__ = ["RetryPolicy", "VsafeClient"]
