"""The V_safe admission wire protocol: newline-delimited canonical JSON.

One request per line, one response per line, matched by the caller's
``id`` (responses to pipelined requests may arrive out of order). The
encoding is *canonical* — ``sort_keys`` with compact separators — so a
response has exactly one byte representation: the differential client
(:mod:`repro.serve.client`) recomputes each answer through the library
and compares the encoded bytes, which is the serving layer's entire
correctness bar.

Requests
--------
Every request is an object with ``op`` and (except ``ping``) ``id``:

``ping``
    liveness probe; echoes the protocol version.
``admit``
    the paper's interface question — "is V_bank above V_safe for this
    task?" — for one task on one plant. Fields: ``estimator`` (registry
    name), ``v_bank``, a task (``trace`` as ``[[amps, seconds], ...]``
    or ``app``/``task`` naming a registered program's task), optional
    ``system`` overrides, optional ``device`` (attaches the per-device
    session: capture registers + derate backoff).
``simulate``
    a one-shot profiling run of one plant on the scalar fastpath
    kernel: ``v_start``, a task (``trace`` or ``app``+``cycles``),
    ``harvesting``, ``stop`` (gate at V_off), optional ``system``,
    optional ``env`` (an EnvSpec dict).
``report``
    a device's ground-truth outcome (``"brownout"`` or ``"success"``),
    feeding its session's derate backoff.
``stats``
    server introspection: obs snapshot, cache and session counters.
``flush``
    force the persistent cache tier to durable storage now; answers
    ``degraded`` when the disk tier has been abandoned after an error.
``shutdown``
    graceful drain-and-exit.

Responses
---------
``{"id":..., "ok":true, "op":..., ...payload}`` on success;
``{"id":..., "ok":false, "error":code, "message":...}`` otherwise.
Error codes: ``bad-request`` (malformed), ``overloaded`` (queue full —
load shedding), ``deadline`` (expired before dispatch), ``degraded``
(the disk tier is unhealthy and the request needed it), ``internal``.
When the daemon's disk tier is degraded, successful ``admit`` /
``simulate`` / ``report`` responses additionally carry
``"degraded": true`` — the answer is still byte-exact modulo that flag,
it just was not persisted.

Idempotency (the self-healing client's retry contract)
------------------------------------------------------
``ping``/``stats``/``flush``/``admit``/``simulate`` are naturally
idempotent: resending the same canonical request bytes yields the same
answer bytes. ``report`` mutates a device session, so the engine
deduplicates reports by the digest of their canonical request bytes and
*replays* the recorded response on a byte-identical resend — after a
connection dies mid-request, a client may always resend the same bytes
without double-counting an outcome (give genuinely distinct reports
distinct ``id`` values). This mirrors Alpaca's recovery discipline
(arXiv:1909.06951): make each unit re-executable so a crash anywhere is
indistinguishable from a retry.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional

PROTOCOL_VERSION = 1

#: Operations the daemon understands.
OPS = ("ping", "admit", "simulate", "report", "stats", "flush", "shutdown")

#: Ops answered inline by the connection handler (no queue, no batch).
INLINE_OPS = ("ping", "stats", "flush", "shutdown")

#: Error codes a client may retry with the *same* canonical bytes
#: (shedding and queue deadlines are transient; see the idempotency
#: contract above). ``bad-request``, ``degraded`` and ``internal`` are
#: not retryable: the same request will fail the same way.
RETRYABLE_ERRORS = ("overloaded", "deadline")

#: Plant override fields accepted in a request's ``system`` object —
#: exactly the per-lane half of a Capybara configuration
#: (:class:`repro.fleet.batch.BatchPlant`) plus the shared rails
#: (:class:`repro.fleet.batch.BatchShared`).
SYSTEM_FIELDS = (
    "datasheet_capacitance", "capacitance_tolerance", "dc_esr",
    "c_decoupling", "leakage_current", "redist_fraction", "harvest_power",
    "v_high", "v_off", "v_out",
)

#: Device outcomes a ``report`` may carry.
REPORT_OUTCOMES = ("brownout", "success")

#: Largest accepted request line (bytes) — also the asyncio reader limit.
MAX_LINE_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A malformed or unserviceable request (becomes ``bad-request``)."""

    def __init__(self, message: str, code: str = "bad-request") -> None:
        super().__init__(message)
        self.code = code


#: One shared encoder: ``json.dumps`` builds a fresh ``JSONEncoder`` per
#: call, which is measurable at serving rates (encoders are stateless and
#: thread-safe, so sharing one is free).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            allow_nan=False)


def canonical(obj: Any) -> str:
    """The one canonical JSON text for ``obj`` (sorted keys, compact)."""
    return _ENCODER.encode(obj)


def encode_line(obj: Any) -> bytes:
    """Canonical JSON plus the newline delimiter, as bytes."""
    return (canonical(obj) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Any:
    """Parse one wire line (raises :class:`ProtocolError` on bad JSON)."""
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable request line: {exc}") from exc


def ok_response(req_id: Any, op: str, payload: Dict[str, Any]) -> dict:
    """A success response (payload keys must not collide with envelope)."""
    body = {"id": req_id, "ok": True, "op": op}
    body.update(payload)
    return body


def error_response(req_id: Any, code: str, message: str) -> dict:
    return {"id": req_id, "ok": False, "error": code, "message": message}


def _is_finite_number(value: Any) -> bool:
    """A JSON number that is a finite float: not ``NaN``/``±Infinity``
    (which ``json.loads`` decodes) and not an integer beyond float
    range."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require_number(req: dict, field: str,
                    minimum: Optional[float] = None) -> float:
    value = req.get(field)
    if not _is_finite_number(value):
        raise ProtocolError(f"{field!r} must be a finite number")
    value = float(value)
    if minimum is not None and value < minimum:
        raise ProtocolError(f"{field!r} must be >= {minimum:g}, got {value}")
    return value


def _check_task(req: dict) -> None:
    """A request names its task by explicit segments or by registry."""
    trace = req.get("trace")
    app = req.get("app")
    if trace is None and app is None:
        raise ProtocolError("a task needs 'trace' segments or an 'app' name")
    if trace is not None:
        if (not isinstance(trace, list) or not trace
                or not all(isinstance(seg, list) and len(seg) == 2
                           and all(_is_finite_number(x) for x in seg)
                           for seg in trace)):
            raise ProtocolError(
                "'trace' must be a non-empty list of finite [current, "
                "duration] pairs")
    if app is not None and not isinstance(app, str):
        raise ProtocolError("'app' must be a string")
    task = req.get("task")
    if task is not None and not isinstance(task, str):
        raise ProtocolError("'task' must be a string")


def _check_system(req: dict) -> None:
    system = req.get("system")
    if system is None:
        return
    if not isinstance(system, dict):
        raise ProtocolError("'system' must be an object")
    for key, value in system.items():
        if key not in SYSTEM_FIELDS:
            raise ProtocolError(
                f"unknown system field {key!r}; "
                f"choose from {', '.join(SYSTEM_FIELDS)}")
        if not _is_finite_number(value):
            raise ProtocolError(
                f"system field {key!r} must be a finite number")


def parse_request(obj: Any) -> dict:
    """Validate a decoded request object; returns it unchanged.

    Validation is structural only — registry names (estimators, apps) and
    plant physics are resolved by the engine, whose errors also map to
    ``bad-request``. Numbers must be finite (``json.loads`` accepts
    ``NaN`` and ``Infinity``; no response could carry them back).
    """
    if not isinstance(obj, dict):
        raise ProtocolError("a request must be a JSON object")
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; choose from "
                            f"{', '.join(OPS)}")
    if op != "ping" and "id" not in obj:
        raise ProtocolError(f"op {op!r} needs an 'id'")
    if op == "admit":
        _require_number(obj, "v_bank", minimum=0.0)
        _check_task(obj)
        _check_system(obj)
        device = obj.get("device")
        if device is not None and not isinstance(device, str):
            raise ProtocolError("'device' must be a string")
    elif op == "simulate":
        _require_number(obj, "v_start", minimum=0.0)
        _check_task(obj)
        _check_system(obj)
        for flag in ("harvesting", "stop"):
            if flag in obj and not isinstance(obj[flag], bool):
                raise ProtocolError(f"{flag!r} must be a boolean")
        env = obj.get("env")
        if env is not None and not isinstance(env, dict):
            raise ProtocolError("'env' must be an EnvSpec object")
        if env and not all(_is_finite_number(v) for v in env.values()
                           if isinstance(v, (int, float))
                           and not isinstance(v, bool)):
            raise ProtocolError("'env' numbers must be finite")
    elif op == "report":
        device = obj.get("device")
        if not isinstance(device, str) or not device:
            raise ProtocolError("'report' needs a non-empty 'device'")
        if obj.get("outcome") not in REPORT_OUTCOMES:
            raise ProtocolError(
                f"'outcome' must be one of {', '.join(REPORT_OUTCOMES)}")
    if "deadline_ms" in obj:
        _require_number(obj, "deadline_ms", minimum=0.0)
    return obj


__all__ = [
    "INLINE_OPS",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "REPORT_OUTCOMES",
    "RETRYABLE_ERRORS",
    "SYSTEM_FIELDS",
    "ProtocolError",
    "canonical",
    "decode_line",
    "encode_line",
    "error_response",
    "ok_response",
    "parse_request",
]
