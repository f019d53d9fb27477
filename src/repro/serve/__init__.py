"""``repro.serve`` — V_safe as a service.

The paper's charge-management interface answers one question — *is the
bank above V_safe for this task?* — on the device. This package answers
the same question for a **fleet**, from one daemon: admission queries
arrive over a newline-delimited canonical-JSON socket protocol
(:mod:`~repro.serve.protocol`), a coalescer answers concurrent queries
that share an analysis with one computation — an estimator run, or a
scalar fastpath run per simulated plant
(:mod:`~repro.serve.engine` over :mod:`repro.fleet.batch`), a
disk-backed content-keyed cache keeps answers warm across restarts
(:mod:`~repro.serve.cache`), and per-device sessions carry the
adaptive derate, which cannot live anywhere but with the device's
history (:mod:`~repro.serve.sessions`).

The correctness bar is deliberately unforgiving: every served answer is
**byte-identical** to the library's answer for the same query, enforced
end to end by the differential check (:mod:`~repro.serve.client`'s
independent oracle and byte-check lanes) and the CI smoke harness
(:mod:`~repro.serve.check`). Batching, coalescing, caching and restarts
are throughput features; none of them is allowed to change a single
byte.

The crash-safety layer holds that bar while things break: the cache is
a journaled, checksummed, crash-consistent tier (:mod:`~repro.serve.journal`)
that degrades to memo+compute when the disk misbehaves
(:mod:`~repro.serve.faultfs` injects those misbehaviours); the
self-healing :class:`~repro.serve.vsafe_client.VsafeClient` retries
with deadlines, seeded backoff and idempotent resend; typed errors
(:mod:`~repro.serve.errors`) document exactly what is retryable; and
``repro chaos --serve`` (:mod:`~repro.serve.chaos`) proves the whole
stack under service-level fault injection.

``VsafeClient`` is the only client. Because every resend is idempotent,
a clean run is simply one in which the client healed nothing: the plain
differential check fails on any retry, resend or reconnect, so the
healing that masks injected faults cannot mask a daemon fault.
"""

from repro.serve.cache import PersistentVsafeCache
from repro.serve.chaos import SERVICE_INJECTORS, ChaosProxy, run_serve_campaign
from repro.serve.engine import AdmissionEngine
from repro.serve.errors import (
    DeadlineBudgetExceeded,
    DeadlineExpiredError,
    DegradedOperationError,
    MalformedRequestError,
    OverloadedError,
    ServeConnectionError,
    ServeTimeoutError,
    VsafeServiceError,
)
from repro.serve.protocol import PROTOCOL_VERSION, RETRYABLE_ERRORS, canonical
from repro.serve.server import ServeConfig, VsafeServer, run_server
from repro.serve.sessions import DeviceSession, SessionStore
from repro.serve.vsafe_client import RetryPolicy, VsafeClient

__all__ = [
    "PROTOCOL_VERSION",
    "RETRYABLE_ERRORS",
    "SERVICE_INJECTORS",
    "AdmissionEngine",
    "ChaosProxy",
    "DeadlineBudgetExceeded",
    "DeadlineExpiredError",
    "DegradedOperationError",
    "DeviceSession",
    "MalformedRequestError",
    "OverloadedError",
    "PersistentVsafeCache",
    "RetryPolicy",
    "ServeConfig",
    "ServeConnectionError",
    "ServeTimeoutError",
    "SessionStore",
    "VsafeClient",
    "VsafeServer",
    "VsafeServiceError",
    "canonical",
    "run_serve_campaign",
    "run_server",
]
