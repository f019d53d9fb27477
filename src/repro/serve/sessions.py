"""Per-device sessions: the adaptive derate backoff, served centrally.

The paper's runtime keeps its admission state *on the device*. When
admission moves into a central daemon (the fleet is queried, not
self-gating), the state a served answer reads has to live server-side:
each device gets a :class:`DeviceSession` holding its adaptive derate
and the brown-out and success counts that moved it.

The derate arithmetic *is* the on-device scheduler's:
:func:`~repro.sched.adaptive.raise_derate` on every reported brown-out
and :func:`~repro.sched.adaptive.decay_derate` on every success, so a
fleet served centrally backs off exactly like a fleet of
self-scheduling devices would. The served gate is
``min(V_high, V_safe + derate)``: waiting for a full buffer is always
safe, so the backoff saturates at V_high gating just like the on-device
policy chain.

The store is a bounded LRU: an idle device's session eventually falls
out and it simply starts fresh (derate zero), which is the conservative
direction only if estimates are sound — the same reasoning the paper
uses for reboot-fresh capture registers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.sched.adaptive import decay_derate, raise_derate


@dataclass
class DeviceSession:
    """One device's server-side state (plain data, JSON-ready)."""

    device: str
    derate: float = 0.0
    brownouts: int = 0
    successes: int = 0

    def note_brownout(self) -> None:
        """A reported brown-out: the estimate (or the plant model behind
        it) is optimistic for this device — double the safety margin."""
        self.brownouts += 1
        self.derate = raise_derate(self.derate)

    def note_success(self) -> None:
        """A reported completion: decay the margin toward zero."""
        self.successes += 1
        self.derate = decay_derate(self.derate)


class SessionStore:
    """A bounded LRU of device sessions (single-event-loop access)."""

    def __init__(self, max_sessions: int = 4096) -> None:
        if max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {max_sessions}")
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[str, DeviceSession]" = OrderedDict()
        self.evictions = 0

    def get(self, device: str) -> Optional[DeviceSession]:
        session = self._sessions.get(device)
        if session is not None:
            self._sessions.move_to_end(device)
        return session

    def get_or_create(self, device: str) -> DeviceSession:
        session = self._sessions.get(device)
        if session is None:
            session = DeviceSession(device=device)
            self._sessions[device] = session
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
                self.evictions += 1
        else:
            self._sessions.move_to_end(device)
        return session

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, device: str) -> bool:
        return device in self._sessions

    def stats(self) -> dict:
        return {
            "sessions": len(self._sessions),
            "max_sessions": self.max_sessions,
            "evictions": self.evictions,
        }


__all__ = [
    "DeviceSession",
    "SessionStore",
]
