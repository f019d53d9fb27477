"""The service-level chaos campaign: injectors, proxy, trials, cases.

Unit tests cover the seeded machinery (injector round-trips, workload
determinism, the degraded-flag comparator, the misbehaving proxy; the
full injector registry contract runs in
``tests/resilience/test_injectors.py``); a small set of real trials
then boots actual daemon subprocesses to pin the four-way
classification end to end. Trials are deliberately tiny — the full
campaign is CI's job (``repro chaos --serve``).
"""

import asyncio
import json
from random import Random

import pytest

from repro import obs
from repro.serve.chaos import (
    SERVICE_INJECTORS,
    STORM_DEADLINE_MS,
    ChaosProxy,
    ServeChaosCase,
    make_trial_workload,
    run_serve_campaign,
)
from repro.serve.client import lines_match
from repro.serve.protocol import encode_line


class TestInjectorRegistry:
    @pytest.mark.parametrize("data", SERVICE_INJECTORS.defaults())
    def test_round_trip_through_dict(self, data):
        injector = SERVICE_INJECTORS.from_dict(data)
        assert injector.to_dict() == data
        again = SERVICE_INJECTORS.from_dict(injector.to_dict())
        assert again.to_dict() == data

    def test_empty_injectors_fail_before_any_trial(self, monkeypatch):
        def no_trial(case):
            raise AssertionError("a trial (and its daemon) was started")

        monkeypatch.setattr(ServeChaosCase, "replay", no_trial)
        with pytest.raises(ValueError, match="injectors must not be empty"):
            run_serve_campaign(1, injectors=())

    def test_kinds_partition_the_fault_surface(self):
        kinds = {cls.kind for cls in SERVICE_INJECTORS.values()}
        assert kinds == {"none", "proxy", "disk", "signal", "workload"}


class TestTrialWorkload:
    def test_seeded_workloads_replay_byte_identically(self):
        a = make_trial_workload(Random(42), 60, flush_ops=True,
                                storm_fraction=0.3)
        b = make_trial_workload(Random(42), 60, flush_ops=True,
                                storm_fraction=0.3)
        assert [encode_line(r) for r in a] == [encode_line(r) for r in b]

    def test_session_free_workloads_carry_no_device_state(self):
        reqs = make_trial_workload(Random(7), 80, session_ops=False)
        assert all("device" not in r for r in reqs)
        assert all(r["op"] != "report" for r in reqs)

    def test_storms_mark_only_queued_ops(self):
        reqs = make_trial_workload(Random(7), 120, flush_ops=True,
                                   storm_fraction=0.5)
        stormed = [r for r in reqs if r.get("deadline_ms")
                   == STORM_DEADLINE_MS]
        assert stormed
        assert all(r["op"] in ("admit", "simulate", "report")
                   for r in stormed)
        assert any(r["op"] == "flush" for r in reqs)


class TestLinesMatch:
    OK = b'{"id":"a","ok":true,"v_safe":2.2}\n'

    def test_byte_identity(self):
        assert lines_match(self.OK, self.OK)
        assert not lines_match(self.OK, self.OK.replace(b"2.2", b"2.3"))

    def test_strips_exactly_a_true_degraded_flag(self):
        degraded = b'{"degraded":true,"id":"a","ok":true,"v_safe":2.2}\n'
        assert not lines_match(degraded, self.OK)
        assert lines_match(degraded, self.OK, strip_degraded=True)

    def test_stripping_never_forgives_real_differences(self):
        wrong = b'{"degraded":true,"id":"a","ok":true,"v_safe":9.9}\n'
        assert not lines_match(wrong, self.OK, strip_degraded=True)
        false_flag = b'{"degraded":false,"id":"a","ok":true,"v_safe":2.2}\n'
        assert not lines_match(false_flag, self.OK, strip_degraded=True)
        assert not lines_match(b"not json\n", self.OK, strip_degraded=True)


class TestChaosProxy:
    def test_reset_profile_aborts_after_n_lines(self):
        async def echo(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    return
                writer.write(line)
                await writer.drain()

        async def scenario():
            upstream = await asyncio.start_server(echo, "127.0.0.1", 0)
            port = upstream.sockets[0].getsockname()[1]
            proxy = ChaosProxy("127.0.0.1", port,
                               {"mode": "reset", "every": 3, "jitter": 0},
                               seed=1)
            await proxy.start()
            reader, writer = await asyncio.open_connection(
                proxy.host, proxy.port)
            try:
                for i in range(3):
                    writer.write(b'{"n":%d}\n' % i)
                    await writer.drain()
                    echoed = await asyncio.wait_for(reader.readline(), 5)
                    if not echoed:
                        break
                # The 4th line trips the abort: the stream dies.
                writer.write(b'{"n":99}\n')
                with pytest.raises((ConnectionError, asyncio.TimeoutError)):
                    tail = await asyncio.wait_for(reader.readline(), 5)
                    if not tail:
                        raise ConnectionResetError("proxy reset")
            finally:
                writer.close()
                await proxy.stop()
                upstream.close()
                await upstream.wait_closed()
            assert proxy.resets == 1 and proxy.faults_fired >= 1

        asyncio.run(scenario())

    def test_stall_profile_blackholes_responses(self):
        async def echo(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    return
                writer.write(line)
                await writer.drain()

        async def scenario():
            upstream = await asyncio.start_server(echo, "127.0.0.1", 0)
            port = upstream.sockets[0].getsockname()[1]
            proxy = ChaosProxy("127.0.0.1", port,
                               {"mode": "stall", "after": 2, "jitter": 0},
                               seed=1)
            await proxy.start()
            reader, writer = await asyncio.open_connection(
                proxy.host, proxy.port)
            try:
                for i in range(2):
                    writer.write(b'{"n":%d}\n' % i)
                    await writer.drain()
                    assert await asyncio.wait_for(reader.readline(), 5)
                writer.write(b'{"n":2}\n')
                await writer.drain()
                # Half-open: the socket stays up, the answer never comes.
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(reader.readline(), 0.3)
            finally:
                writer.close()
                await proxy.stop()
                upstream.close()
                await upstream.wait_closed()
            assert proxy.stalled >= 1

        asyncio.run(scenario())


class TestRealTrials:
    """Tiny end-to-end trials against real daemon subprocesses."""

    def _trial(self, injector_name):
        (injector,) = SERVICE_INJECTORS.defaults([injector_name])
        return ServeChaosCase(seed=5, index=0, injector=injector,
                              queries=10).replay()

    def test_no_fault_trial_completes(self):
        outcome = self._trial("none")
        assert outcome.outcome == "completed" and not outcome.unsafe

    def test_connection_reset_trial_degrades_but_stays_safe(self):
        outcome = self._trial("connection-reset")
        assert outcome.outcome == "degraded_but_safe"

    def test_sigkill_trial_restarts_and_stays_safe(self):
        outcome = self._trial("sigkill")
        assert outcome.outcome == "degraded_but_safe"

    def test_small_campaign_report_is_pure_data(self):
        with obs.observe() as state:
            report = run_serve_campaign(
                2, seed=5, queries=10,
                injectors=[{"injector": "none", "params": {}},
                           {"injector": "deadline-storm",
                            "params": {"fraction": 0.4}}])
        assert report.ok
        counters = state.metrics.snapshot()["counters"]
        assert counters["serve_chaos.trials"] == 2
        assert sum(counters.get(f"serve_chaos.outcome.{o}", 0)
                   for o in ("completed", "degraded_but_safe")) == 2
        data = report.to_dict()
        again = json.dumps(data, sort_keys=True)
        assert json.loads(again) == data
        assert data["counts"]["completed"] + \
            data["counts"]["degraded_but_safe"] == 2
        assert report.render()


class TestCases:
    def test_case_save_load_round_trip(self, tmp_path):
        case = ServeChaosCase(
            seed=5, index=3,
            injector={"injector": "sigkill",
                      "params": {"at_fraction": 0.5}},
            queries=10, original={"outcome": "brown_out"})
        path = tmp_path / "case.json"
        case.save(path)
        loaded = ServeChaosCase.load(path)
        assert loaded == case
        assert loaded.to_dict() == case.to_dict()

    def test_documents_with_daemon_settings_still_load(self, tmp_path):
        # Cases persisted while the daemon and client settings were
        # campaign options carry them, at today's constants.
        case = ServeChaosCase(
            seed=5, index=3, injector={"injector": "none", "params": {}},
            queries=10)
        document = dict(case.to_dict(), queue_limit=256, drain_timeout=5.0,
                        deadline_s=20.0, watchdog_s=120.0)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert ServeChaosCase.load(path) == case

    def test_foreign_documents_rejected(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError):
            ServeChaosCase.load(path)

    def test_replay_runs_the_recorded_trial(self):
        case = ServeChaosCase(
            seed=5, index=0,
            injector={"injector": "none", "params": {}},
            queries=8)
        outcome = case.replay()
        assert outcome.outcome == "completed"
