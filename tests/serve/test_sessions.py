"""Device sessions: the on-device backoff arithmetic, relocated.

A centrally-served fleet must back off exactly like a fleet of
self-scheduling devices, so sessions step their derate through the
adaptive scheduler's rule and the raise/decay sequences are asserted to
match its arithmetic step for step.
"""

import pytest

from repro.sched.adaptive import DERATE_EPSILON, DERATE_INITIAL, DERATE_MAX
from repro.serve.sessions import DeviceSession, SessionStore


class TestDerateMirror:
    def test_constants_are_the_schedulers(self):
        # The one set every backoff reads; a change moves served bytes
        # and the chaos reports.
        assert (DERATE_INITIAL, DERATE_MAX, DERATE_EPSILON) == \
            (0.02, 0.5, 1e-3)

    def test_brownouts_double_up_to_the_cap(self):
        session = DeviceSession("d")
        expected = 0.0
        for _ in range(12):
            session.note_brownout()
            expected = (DERATE_INITIAL if expected <= 0.0
                        else min(DERATE_MAX, expected * 2.0))
            assert session.derate == expected
        assert session.derate == DERATE_MAX
        assert session.brownouts == 12

    def test_successes_halve_then_snap_to_zero(self):
        session = DeviceSession("d")
        session.note_brownout()
        session.note_brownout()          # 2 * DERATE_INITIAL
        session.note_success()
        assert session.derate == DERATE_INITIAL
        while session.derate > 0.0:
            session.note_success()
        assert session.derate == 0.0
        # Once at zero, further successes stay at zero.
        session.note_success()
        assert session.derate == 0.0

    def test_decay_snaps_below_epsilon(self):
        session = DeviceSession("d", derate=DERATE_EPSILON * 1.5)
        session.note_success()
        assert session.derate == 0.0


class TestSessionStore:
    def test_get_or_create_then_get(self):
        store = SessionStore()
        assert store.get("d0") is None
        session = store.get_or_create("d0")
        assert store.get("d0") is session
        assert store.get_or_create("d0") is session
        assert "d0" in store and len(store) == 1

    def test_lru_eviction_counts_and_forgets(self):
        store = SessionStore(max_sessions=2)
        store.get_or_create("a").note_brownout()
        store.get_or_create("b")
        store.get_or_create("a")          # refresh "a"
        store.get_or_create("c")          # evicts "b"
        assert store.get("b") is None
        assert store.evictions == 1
        # The evicted device starts fresh — derate zero, the
        # conservative-direction reasoning the module docstring gives.
        fresh = store.get_or_create("b")
        assert fresh.derate == 0.0

    def test_stats_shape(self):
        store = SessionStore(max_sessions=8)
        store.get_or_create("a")
        assert store.stats() == {"sessions": 1, "max_sessions": 8,
                                 "evictions": 0}

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            SessionStore(max_sessions=0)
